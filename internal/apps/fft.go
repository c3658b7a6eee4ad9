package apps

import (
	"fmt"
	"math"
	"math/cmplx"
	"time"

	"repro/internal/exchange"
	"repro/internal/fabric"
	"repro/internal/model"
)

// FFT computes the in-place radix-2 decimation-in-time FFT of x (length a
// power of two). inverse selects the inverse transform (scaled by 1/len).
func FFT(x []complex128, inverse bool) error {
	n := len(x)
	if n == 0 {
		return nil
	}
	if n&(n-1) != 0 {
		return fmt.Errorf("apps: FFT length %d is not a power of two", n)
	}
	// Bit-reversal permutation.
	for i, j := 0, 0; i < n; i++ {
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
		mask := n >> 1
		for ; j&mask != 0; mask >>= 1 {
			j &^= mask
		}
		j |= mask
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		ang := sign * 2 * math.Pi / float64(size)
		wstep := cmplx.Exp(complex(0, ang))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < size/2; k++ {
				a := x[start+k]
				b := x[start+k+size/2] * w
				x[start+k] = a + b
				x[start+k+size/2] = a - b
				w *= wstep
			}
		}
	}
	if inverse {
		inv := complex(1/float64(n), 0)
		for i := range x {
			x[i] *= inv
		}
	}
	return nil
}

// DFTReference computes the direct O(n²) DFT, used to validate FFT.
func DFTReference(x []complex128, inverse bool) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			ang := sign * 2 * math.Pi * float64(k) * float64(t) / float64(n)
			sum += x[t] * cmplx.Exp(complex(0, ang))
		}
		if inverse {
			sum /= complex(float64(n), 0)
		}
		out[k] = sum
	}
	return out
}

// Grid2D is an N×N complex grid distributed by row slabs over n = 2^d
// processors: processor p owns rows p·N/n .. (p+1)·N/n − 1.
type Grid2D struct {
	N     int            // grid side
	Procs int            // processor count (power of two, ≤ N)
	Slabs [][]complex128 // Slabs[p]: (N/Procs)·N values, row-major
}

// NewGrid2D builds a distributed grid filled by fill(row, col).
func NewGrid2D(n, procs int, fill func(r, c int) complex128) (*Grid2D, error) {
	if n < 1 || procs < 1 || n%procs != 0 {
		return nil, fmt.Errorf("apps: bad grid n=%d procs=%d", n, procs)
	}
	if procs&(procs-1) != 0 {
		return nil, fmt.Errorf("apps: processor count %d not a power of two", procs)
	}
	g := &Grid2D{N: n, Procs: procs, Slabs: make([][]complex128, procs)}
	rows := n / procs
	for p := 0; p < procs; p++ {
		slab := make([]complex128, rows*n)
		for r := 0; r < rows; r++ {
			for c := 0; c < n; c++ {
				slab[r*n+c] = fill(p*rows+r, c)
			}
		}
		g.Slabs[p] = slab
	}
	return g, nil
}

// At returns element (r, c) in global coordinates.
func (g *Grid2D) At(r, c int) complex128 {
	rows := g.N / g.Procs
	return g.Slabs[r/rows][(r%rows)*g.N+c]
}

// rowsPerProc returns N/Procs.
func (g *Grid2D) rowsPerProc() int { return g.N / g.Procs }

// transposeGrid performs the distributed transpose of the grid via one
// complete exchange: processor p cuts its slab into Procs column panels
// and sends panel q to processor q; received panels are locally
// rearranged. The panel is the exchange block (N/Procs)²·16 bytes.
func transposeGrid(g *Grid2D, plan *exchange.Plan, fab fabric.Fabric, timeout time.Duration) error {
	rows := g.rowsPerProc()
	panelBytes := rows * rows * 16
	if plan.BlockSize() != panelBytes {
		return fmt.Errorf("apps: plan block %d, want %d", plan.BlockSize(), panelBytes)
	}
	return fab.Run(func(nd fabric.Node) error {
		p := nd.ID()
		buf, err := exchange.NewBuffer(plan.Dim(), panelBytes)
		if err != nil {
			return err
		}
		slab := g.Slabs[p]
		// Pack panel q: the rows×rows submatrix at columns q·rows.
		for q := 0; q < g.Procs; q++ {
			blk := buf.Block(q)
			for r := 0; r < rows; r++ {
				for cc := 0; cc < rows; cc++ {
					putComplex(blk, (r*rows+cc)*16, slab[r*g.N+q*rows+cc])
				}
			}
		}
		if err := plan.Execute(nd, buf); err != nil {
			return err
		}
		// Unpack: panel from s is the transposed submatrix for columns
		// s·rows of my new slab.
		for s := 0; s < g.Procs; s++ {
			blk := buf.Block(s)
			for r := 0; r < rows; r++ {
				for cc := 0; cc < rows; cc++ {
					// Transpose while unpacking: element (r,cc) of
					// the received panel is (cc,r) of my slab panel.
					slab[cc*g.N+s*rows+r] = getComplex(blk, (r*rows+cc)*16)
				}
			}
		}
		return nil
	}, timeout)
}

func putComplex(b []byte, off int, v complex128) {
	bits := math.Float64bits(real(v))
	for i := 0; i < 8; i++ {
		b[off+i] = byte(bits >> (8 * i))
	}
	bits = math.Float64bits(imag(v))
	for i := 0; i < 8; i++ {
		b[off+8+i] = byte(bits >> (8 * i))
	}
}

func getComplex(b []byte, off int) complex128 {
	var re, im uint64
	for i := 0; i < 8; i++ {
		re |= uint64(b[off+i]) << (8 * i)
		im |= uint64(b[off+8+i]) << (8 * i)
	}
	return complex(math.Float64frombits(re), math.Float64frombits(im))
}

// FFT2D computes the 2-D FFT of the distributed grid with the transpose
// method ([11] in the paper): FFT all local rows, distributed transpose,
// FFT all local rows again, transpose back. The multiphase partition for
// the transposes is chosen by the optimizer.
func FFT2D(g *Grid2D, prm model.Params, inverse bool, timeout time.Duration) error {
	d := log2(g.Procs)
	if d < 0 {
		return fmt.Errorf("apps: processor count %d not a power of two", g.Procs)
	}
	rows := g.rowsPerProc()
	panelBytes := rows * rows * 16
	plan, err := bestPlan(prm, d, panelBytes)
	if err != nil {
		return err
	}
	fab, err := fabric.NewRuntime(g.Procs)
	if err != nil {
		return err
	}
	fftRows := func() error {
		return fab.Run(func(nd fabric.Node) error {
			slab := g.Slabs[nd.ID()]
			for r := 0; r < rows; r++ {
				if err := FFT(slab[r*g.N:(r+1)*g.N], inverse); err != nil {
					return err
				}
			}
			return nil
		}, timeout)
	}
	if err := fftRows(); err != nil {
		return err
	}
	if err := transposeGrid(g, plan, fab, timeout); err != nil {
		return err
	}
	if err := fftRows(); err != nil {
		return err
	}
	return transposeGrid(g, plan, fab, timeout)
}

// Package apps implements the applications the paper cites as the reason
// the complete exchange matters (§3): matrix transpose under the ADI
// block-row mapping, the transpose-method 2-D FFT, and distributed table
// lookup. Each is built on the multiphase exchange plans of package
// exchange running against the fabric interface (here instantiated with
// the real goroutine backend), with the partition chosen by the optimizer
// for the machine parameters.
package apps

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/bitutil"
	"repro/internal/exchange"
	"repro/internal/fabric"
	"repro/internal/model"
	"repro/internal/optimize"
	"repro/internal/topology"
)

// BlockMatrix is an n·bs × n·bs matrix of float64 partitioned into n×n
// blocks of bs×bs, mapped onto n processors by block rows: processor p
// owns blocks (p, 0..n-1). This is the ADI mapping of Figure 2.
type BlockMatrix struct {
	N  int // block grid dimension = processor count
	BS int // block side length
	// Rows[p][j] is block (p,j) in row-major order, owned by processor p.
	Rows [][][]float64
}

// NewBlockMatrix allocates an n×n block matrix with bs×bs blocks, filled
// by fill(globalRow, globalCol).
func NewBlockMatrix(n, bs int, fill func(r, c int) float64) (*BlockMatrix, error) {
	if n < 1 || bs < 1 {
		return nil, fmt.Errorf("apps: bad matrix shape n=%d bs=%d", n, bs)
	}
	m := &BlockMatrix{N: n, BS: bs, Rows: make([][][]float64, n)}
	for p := 0; p < n; p++ {
		m.Rows[p] = make([][]float64, n)
		for j := 0; j < n; j++ {
			blk := make([]float64, bs*bs)
			for r := 0; r < bs; r++ {
				for c := 0; c < bs; c++ {
					blk[r*bs+c] = fill(p*bs+r, j*bs+c)
				}
			}
			m.Rows[p][j] = blk
		}
	}
	return m, nil
}

// At returns element (r, c) in global coordinates.
func (m *BlockMatrix) At(r, c int) float64 {
	return m.Rows[r/m.BS][c/m.BS][(r%m.BS)*m.BS+(c%m.BS)]
}

// BlockBytes returns the wire size of one block: bs²·8.
func (m *BlockMatrix) BlockBytes() int { return m.BS * m.BS * 8 }

// encodeBlock serializes a block to bytes (little-endian float64).
func encodeBlock(blk []float64, out []byte) {
	for i, v := range blk {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
}

// decodeBlock deserializes bytes into a block.
func decodeBlock(in []byte, blk []float64) {
	for i := range blk {
		blk[i] = math.Float64frombits(binary.LittleEndian.Uint64(in[i*8:]))
	}
}

// transposeLocal transposes a bs×bs block in place.
func transposeLocal(blk []float64, bs int) {
	for r := 0; r < bs; r++ {
		for c := r + 1; c < bs; c++ {
			blk[r*bs+c], blk[c*bs+r] = blk[c*bs+r], blk[r*bs+c]
		}
	}
}

// Transpose performs the distributed transpose of §3 on a d-cube (the
// matrix's N must be 2^d): one complete exchange — processor p sends block
// (p,j) to processor j — followed by a local transpose of every block. The
// multiphase partition is chosen by the optimizer for the given machine
// parameters. The matrix is replaced by its transpose.
func Transpose(m *BlockMatrix, prm model.Params, timeout time.Duration) error {
	d := log2(m.N)
	if d < 0 {
		return fmt.Errorf("apps: matrix grid %d is not a power of two", m.N)
	}
	plan, err := bestPlan(prm, d, m.BlockBytes())
	if err != nil {
		return err
	}
	fab, err := fabric.NewRuntime(m.N)
	if err != nil {
		return err
	}
	err = fab.Run(func(nd fabric.Node) error {
		p := nd.ID()
		buf, err := exchange.NewBuffer(d, m.BlockBytes())
		if err != nil {
			return err
		}
		for j := 0; j < m.N; j++ {
			encodeBlock(m.Rows[p][j], buf.Block(j))
		}
		if err := plan.Execute(nd, buf); err != nil {
			return err
		}
		// Block s now holds the block (s, p) of the original matrix;
		// its local transpose is block (p, s) of the transpose.
		for s := 0; s < m.N; s++ {
			decodeBlock(buf.Block(s), m.Rows[p][s])
			transposeLocal(m.Rows[p][s], m.BS)
		}
		return nil
	}, timeout)
	return err
}

// ADISweeps runs the communication skeleton of one ADI iteration ([5, 10]
// in the paper): a row sweep (local), a transpose, a column sweep (local
// on the transposed layout), and a transpose back. It returns the matrix
// to its original orientation; the sweeps apply opFn to each row of the
// current layout.
func ADISweeps(m *BlockMatrix, prm model.Params, opFn func(row []float64), timeout time.Duration) error {
	applyRows := func() {
		row := make([]float64, m.N*m.BS)
		for p := 0; p < m.N; p++ {
			for r := 0; r < m.BS; r++ {
				for j := 0; j < m.N; j++ {
					copy(row[j*m.BS:(j+1)*m.BS], m.Rows[p][j][r*m.BS:(r+1)*m.BS])
				}
				opFn(row)
				for j := 0; j < m.N; j++ {
					copy(m.Rows[p][j][r*m.BS:(r+1)*m.BS], row[j*m.BS:(j+1)*m.BS])
				}
			}
		}
	}
	applyRows() // row-direction sweep
	if err := Transpose(m, prm, timeout); err != nil {
		return err
	}
	applyRows() // column-direction sweep (rows of the transpose)
	return Transpose(m, prm, timeout)
}

func log2(n int) int { return bitutil.Log2Exact(n) }

// bestPlan returns the optimizer's plan for a complete exchange of
// m-byte blocks on a d-cube.
func bestPlan(prm model.Params, d, m int) (*exchange.Plan, error) {
	cube, err := topology.New(d)
	if err != nil {
		return nil, err
	}
	return optimize.New(prm).PlanOn(cube, m)
}

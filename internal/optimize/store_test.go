package optimize

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/topology"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	prm := model.IPSC860()
	o := New(prm)
	tbl, err := o.BuildTableOn(topology.MustNew(6), 0, 400, 8)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveTable(&buf, tbl, prm); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTable(&buf, prm)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tbl) {
		t.Fatalf("round trip changed the table:\n got %+v\nwant %+v", got, tbl)
	}
}

// The stored format records only a cube dimension, so a torus or mesh
// table must be refused instead of being written as a hypercube one.
func TestSaveRejectsNonHypercubeTable(t *testing.T) {
	prm := model.IPSC860()
	tbl, err := New(prm).BuildTableOn(topology.MustParseSpec("torus-4x4"), 0, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveTable(&buf, tbl, prm); err == nil || !strings.Contains(err.Error(), "torus-4x4") {
		t.Errorf("saving a torus table: %v, want a rejection naming the topology", err)
	}
	if buf.Len() != 0 {
		t.Errorf("a rejected table must write nothing, wrote %q", buf.String())
	}
}

func TestLoadRejectsWrongMachine(t *testing.T) {
	prm := model.IPSC860()
	o := New(prm)
	tbl, err := o.BuildTableOn(topology.MustNew(5), 0, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveTable(&buf, tbl, prm); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTable(&buf, model.Hypothetical()); err == nil ||
		!strings.Contains(err.Error(), "different machine") {
		t.Errorf("mismatched machine must be rejected, got %v", err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := LoadTable(strings.NewReader("not json"), model.IPSC860()); err == nil {
		t.Error("garbage must fail")
	}
	if _, err := LoadTable(strings.NewReader(`{"version":2}`), model.IPSC860()); err == nil {
		t.Error("wrong version must fail")
	}
}

func TestLoadRejectsInvalidSegments(t *testing.T) {
	prm := model.IPSC860()
	// A partition that does not sum to d.
	bad := `{"version":1,"d":5,"machine":{"lambda":95,"tau":0.394,"delta":10.3,"rho":0.54,` +
		`"lambda_zero":82.5,"global_sync_per_dim":150,"exchange_mode":1,"global_sync_per_phase":true},` +
		`"segments":[{"partition":[9],"min_block":0,"max_block":10}]}`
	if _, err := LoadTable(strings.NewReader(bad), prm); err == nil {
		t.Error("invalid partition must be rejected")
	}
	bad2 := strings.Replace(bad, `[9]`, `[2,3]`, 1)
	bad2 = strings.Replace(bad2, `"min_block":0,"max_block":10`, `"min_block":10,"max_block":0`, 1)
	if _, err := LoadTable(strings.NewReader(bad2), prm); err == nil {
		t.Error("inverted range must be rejected")
	}
	// A stored dimension outside the enumeration limit, even with no
	// segments to contradict it.
	for _, d := range []string{`-1`, `21`, `100000000`} {
		bad3 := strings.Replace(bad, `"d":5`, `"d":`+d, 1)
		bad3 = bad3[:strings.Index(bad3, `"segments"`)] + `"segments":[]}`
		if _, err := LoadTable(strings.NewReader(bad3), prm); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("stored d=%s: %v, want an out-of-range rejection", d, err)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	prm := model.IPSC860()
	o := New(prm)
	tbl, err := o.BuildTableOn(topology.MustNew(5), 0, 200, 10)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "hull-d5.json")
	if err := SaveTableFile(path, tbl, prm); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTableFile(path, prm)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Segments) != len(tbl.Segments) {
		t.Error("file round trip lost segments")
	}
	if _, err := LoadTableFile(filepath.Join(t.TempDir(), "missing.json"), prm); !os.IsNotExist(err) {
		t.Errorf("missing file error = %v", err)
	}
}

package optimize

import (
	"os"
	"runtime"
	"testing"

	"repro/internal/model"
	"repro/internal/topology"
)

// Sharded replay must be invisible to the optimizer's answers: the same
// Choice — partition AND bit-identical TimeMicro — with shards on and
// off, because the sharded replay results equal the serial ones exactly.
// The stats split proves the sharded path actually engaged rather than
// silently falling back everywhere.
func TestReplayShardsChoiceEquivalence(t *testing.T) {
	prm := model.IPSC860()
	for _, tc := range []struct{ d, m int }{{5, 8}, {6, 40}, {7, 200}} {
		serial := NewSimulated(prm)
		sharded := NewSimulated(prm)
		sharded.SetReplayShards(4)
		// Exhaustive mode costs every candidate's fragments — without it,
		// the bound can prune everything but a single-phase winner whose
		// whole-machine span is one group and legitimately runs serial.
		serial.SetExhaustive(true)
		sharded.SetExhaustive(true)

		sc, err := serial.BestOn(topology.MustNew(tc.d), tc.m)
		if err != nil {
			t.Fatal(err)
		}
		hc, err := sharded.BestOn(topology.MustNew(tc.d), tc.m)
		if err != nil {
			t.Fatal(err)
		}
		if !sc.Part.Equal(hc.Part) {
			t.Errorf("d=%d m=%d: partitions differ: serial %v, sharded %v", tc.d, tc.m, sc.Part, hc.Part)
		}
		if sc.TimeMicro != hc.TimeMicro {
			t.Errorf("d=%d m=%d: times differ: serial %v, sharded %v", tc.d, tc.m, sc.TimeMicro, hc.TimeMicro)
		}

		st := sharded.Stats()
		if st.ReplaysSharded == 0 {
			t.Errorf("d=%d m=%d: no replay ran sharded (serial=%d)", tc.d, tc.m, st.ReplaysSerial)
		}
		if got := serial.Stats(); got.ReplaysSharded != 0 {
			t.Errorf("d=%d m=%d: serial optimizer reports %d sharded replays", tc.d, tc.m, got.ReplaysSharded)
		}
		if got := serial.Stats(); got.ReplaysSerial == 0 {
			t.Errorf("d=%d m=%d: serial optimizer counted no replays", tc.d, tc.m)
		}
	}
}

// The replay counters aggregate like the other Stats fields.
func TestStatsAddReplayCounters(t *testing.T) {
	a := Stats{ReplaysSharded: 2, ReplaysSerial: 3}
	a.Add(Stats{ReplaysSharded: 5, ReplaysSerial: 7})
	if a.ReplaysSharded != 7 || a.ReplaysSerial != 10 {
		t.Fatalf("Add: got sharded=%d serial=%d", a.ReplaysSharded, a.ReplaysSerial)
	}
}

// The acceptance case for the raised limit: the simulated optimizer
// accepts d = 18 (262144 nodes) with sharded replay carrying the
// largest fragments. The enumeration replays billions of events, so it
// only runs when REPRO_HEAVY is set; the limit itself is pinned
// unconditionally in TestSimulatedBackendDimLimit.
func TestSimulatedBest18(t *testing.T) {
	if os.Getenv("REPRO_HEAVY") == "" {
		t.Skip("set REPRO_HEAVY=1 to run the full d=18 simulated enumeration")
	}
	prm := model.IPSC860()
	o := NewSimulated(prm)
	o.SetReplayShards(runtime.GOMAXPROCS(0))
	s, err := o.BestOn(topology.MustNew(18), 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(prm).BestOn(topology.MustNew(18), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Part.Canonical().Equal(s.Part.Canonical()) {
		t.Errorf("analytic %v vs compiled-simulated %v", a.Part, s.Part)
	}
}

package core

import (
	"testing"

	"repro/internal/model"
	"repro/internal/plancache"
)

func TestPlanCacheFastPathMatchesOptimizer(t *testing.T) {
	pc := plancache.New(plancache.Config{})
	cached := mustSystem(t, 6, model.IPSC860())
	if err := cached.UsePlanCache(pc, "ipsc860"); err != nil {
		t.Fatal(err)
	}
	direct := mustSystem(t, 6, model.IPSC860())

	for _, m := range []int{0, 8, 40, 200} {
		want, err := direct.BestPartition(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cached.BestPartition(m)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("m=%d: cached %v, direct %v", m, got, want)
		}
	}

	// The full exchange path works through the cache too.
	res, err := cached.CompleteExchange(40)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := direct.CompleteExchange(40)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partition.Equal(ref.Partition) || res.SimulatedMicros != ref.SimulatedMicros {
		t.Errorf("cached exchange %v/%v, direct %v/%v",
			res.Partition, res.SimulatedMicros, ref.Partition, ref.SimulatedMicros)
	}
	if !res.DataVerified {
		t.Error("cached exchange skipped data verification")
	}
}

func TestPlanCacheFastPathSharesLines(t *testing.T) {
	pc := plancache.New(plancache.Config{})
	a := mustSystem(t, 6, model.IPSC860())
	b := mustSystem(t, 6, model.IPSC860())
	for _, s := range []*System{a, b} {
		if err := s.UsePlanCache(pc, "ipsc860"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.BestPartition(40); err != nil {
		t.Fatal(err)
	}
	if _, err := b.BestPartition(80); err != nil {
		t.Fatal(err)
	}
	if s := pc.Stats(); s.Builds != 1 {
		t.Errorf("two Systems cost %d builds, want 1 shared line", s.Builds)
	}
}

func TestUsePlanCacheRejectsParamMismatch(t *testing.T) {
	pc := plancache.New(plancache.Config{})
	s := mustSystem(t, 6, model.Ncube2())
	if err := s.UsePlanCache(pc, "ipsc860"); err == nil {
		t.Error("expected error attaching ipsc860 cache to an Ncube-2 system")
	}
	// A machine the cache cannot serve is rejected at attach time, not
	// on the first request.
	restricted := plancache.New(plancache.Config{
		Machines: map[string]model.Params{"hypo": model.Hypothetical()},
	})
	ipsc := mustSystem(t, 6, model.IPSC860())
	if err := ipsc.UsePlanCache(restricted, "ipsc860"); err == nil {
		t.Error("expected error attaching a machine the cache does not serve")
	}
	if err := s.UsePlanCache(pc, "ncube2"); err != nil {
		t.Errorf("matching machine rejected: %v", err)
	}
	// Detach restores the private optimizer path.
	if err := s.UsePlanCache(nil, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := s.BestPartition(40); err != nil {
		t.Fatal(err)
	}
}

package serve

import (
	"context"
	"testing"

	"mpq/internal/fleet"
)

// epsTemplate is testTemplate with an approximation-factor override.
func epsTemplate(seed int64, eps float64) Template {
	tpl := testTemplate(seed)
	tpl.Epsilon = &eps
	return tpl
}

// TestEpsilonTiersCoexist: the same template prepared exact and at
// ε = 0.05 on one server must live under distinct keys — two
// independent cache entries, two shared-store documents, each serving
// its own tier — and repeat Prepares of either tier must hit their own
// entry.
func TestEpsilonTiersCoexist(t *testing.T) {
	shared, err := fleet.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Workers: 2, Index: true, Shared: shared})
	defer s.Close()

	exact, err := s.Prepare(context.Background(), epsTemplate(21, 0))
	if err != nil {
		t.Fatal(err)
	}
	approx, err := s.Prepare(context.Background(), epsTemplate(21, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	if exact.Key == approx.Key {
		t.Fatalf("exact and ε=0.05 tiers share key %s", exact.Key)
	}
	if exact.Cached || approx.Cached {
		t.Errorf("first Prepares reported cached: exact=%v approx=%v", exact.Cached, approx.Cached)
	}
	if st := s.Stats(); st.SharedPuts != 2 {
		t.Errorf("published %d documents, want 2 (one per tier)", st.SharedPuts)
	}
	tiers := []struct {
		eps float64
		res PrepareResult
	}{{0, exact}, {0.05, approx}}
	for _, tier := range tiers {
		again, err := s.Prepare(context.Background(), epsTemplate(21, tier.eps))
		if err != nil || !again.Cached || again.Key != tier.res.Key {
			t.Errorf("repeat Prepare at eps=%g: cached=%v key=%s err=%v", tier.eps, again.Cached, again.Key, err)
		}
	}
	psExact, ok := s.PlanSet(exact.Key)
	if !ok {
		t.Fatal("exact plan set missing")
	}
	psApprox, ok := s.PlanSet(approx.Key)
	if !ok {
		t.Fatal("approx plan set missing")
	}
	if psExact.Epsilon != 0 || psApprox.Epsilon != 0.05 {
		t.Errorf("tier factors: exact %v (want 0), approx %v (want 0.05)", psExact.Epsilon, psApprox.Epsilon)
	}
	if len(psApprox.Plans) > len(psExact.Plans) {
		t.Errorf("ε tier kept %d plans, exact %d: approximation grew the set", len(psApprox.Plans), len(psExact.Plans))
	}
	// Both tiers pick at every test point without cross-talk.
	for _, x := range testPoints {
		for _, key := range []string{exact.Key, approx.Key} {
			if _, err := s.Pick(context.Background(), PickRequest{Key: key, Point: x}); err != nil {
				t.Fatalf("pick on tier %s at %v: %v", key, x, err)
			}
		}
	}
}

// TestEpsilonTierMismatchIsComputeNotWrongAnswer: a document planted
// under the other tier's filename must be rejected by the prepare-time
// tier validation and recomputed — a cache-key miss, never a silent
// wrong-tier hit. The key already makes an accidental collision
// impossible; this exercises the defense in depth behind it.
func TestEpsilonTierMismatchIsComputeNotWrongAnswer(t *testing.T) {
	// Compute the ε-tier document in a throwaway server.
	dirA := t.TempDir()
	a := New(Options{Workers: 1, Index: true, Shared: dirStore(t, dirA)})
	approx, err := a.Prepare(context.Background(), epsTemplate(21, 0.25))
	if err != nil {
		t.Fatal(err)
	}
	a.Close()
	epsDoc, ok, err := dirStore(t, dirA).Get(approx.Key)
	if !ok || err != nil {
		t.Fatalf("persisted ε-tier document: ok=%v, err=%v", ok, err)
	}

	// Plant it under the exact tier's key in a fresh server's store.
	storeB := dirStore(t, t.TempDir())
	b := New(Options{Workers: 1, Index: true, Shared: storeB})
	defer b.Close()
	exactKey, err := b.Key(epsTemplate(21, 0))
	if err != nil {
		t.Fatal(err)
	}
	if exactKey == approx.Key {
		t.Fatal("tiers unexpectedly share a key")
	}
	if err := storeB.Put(exactKey, epsDoc); err != nil {
		t.Fatal(err)
	}

	// Preparing the exact tier must ignore the planted document and
	// optimize from scratch.
	exact, err := b.Prepare(context.Background(), epsTemplate(21, 0))
	if err != nil {
		t.Fatal(err)
	}
	if exact.Cached {
		t.Fatal("exact Prepare served the planted ε-tier document")
	}
	ps, ok := b.PlanSet(exact.Key)
	if !ok {
		t.Fatal("exact plan set missing")
	}
	if ps.Epsilon != 0 {
		t.Errorf("exact tier loaded with epsilon %v", ps.Epsilon)
	}
}

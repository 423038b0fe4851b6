package main

import (
	"bytes"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"
)

// replayCounts runs a workload's in-process layer replay and returns
// its deterministic counts and answer digest.
func replayCounts(t *testing.T, name string, seed int64) layerCounts {
	t.Helper()
	dir := t.TempDir()
	w, err := newScenario(name, seed, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	c, _, err := w.layerReplay(newTracer(), filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	if c.LPs == 0 || c.Points == 0 || c.Leaves == 0 {
		t.Fatalf("%s seed %d: empty replay %+v", name, seed, c)
	}
	return c
}

// TestReplayIsSeedDetermined replays prepare-cold and picks-hot twice
// with one seed: the optimizer, geometry and index counts and the
// answers must repeat exactly. A second seed must change the answers,
// which shows the seed reaches the request stream, and must leave the
// counts alone: the templates and their catalogs are the same for
// every seed.
func TestReplayIsSeedDetermined(t *testing.T) {
	for _, name := range []string{"prepare-cold", "picks-hot"} {
		a, b := replayCounts(t, name, 1), replayCounts(t, name, 1)
		if a != b {
			t.Errorf("%s: seed 1 replayed differently:\n%+v\n%+v", name, a, b)
		}
		c := replayCounts(t, name, 2)
		if c.Digest == a.Digest {
			t.Errorf("%s: seed 2 did not change the answers:\n%+v\n%+v", name, a, c)
		}
		c.Digest, c.Points, c.Uncovered = a.Digest, a.Points, a.Uncovered
		if c != a {
			t.Errorf("%s: seed 2 changed the optimizer work:\n%+v\n%+v", name, a, c)
		}
	}
}

// TestCPUShares checks the profile decoder on a profile of the
// benchmark's own layer replay: the optimizer's packages must show up,
// and shares stay within [0, 1].
func TestCPUShares(t *testing.T) {
	dir := t.TempDir()
	w, err := newScenario("prepare-cold", 3, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for i := 0; time.Since(start) < time.Second; i++ {
		if _, _, err := w.layerReplay(newTracer(), filepath.Join(dir, "store", string(rune('a'+i)))); err != nil {
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	self, cum, err := cpuShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for name, v := range self {
		if v < 0 || v > cum[name]+1e-12 || cum[name] > 1 {
			t.Errorf("%s: self share %v, cumulative %v", name, v, cum[name])
		}
		sum += v
	}
	if sum > 1+1e-9 {
		t.Errorf("self shares sum to %v", sum)
	}
	if self["geometry"] == 0 || cum["core"] == 0 {
		t.Errorf("optimizer packages missing from the profile: self %v cum %v", self, cum)
	}
}

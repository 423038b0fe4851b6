package core_test

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"mpq/internal/cloud"
	"mpq/internal/core"
	"mpq/internal/geometry"
	"mpq/internal/store"
	"mpq/internal/workload"
)

// countdownCtx is a context that cancels itself at an exact
// checkpoint: Err reports context.Canceled from its n-th call on (and
// Done closes then). Reading it is the only way the optimizer observes
// cancellation, so a sweep over n cancels a run at chosen checkpoints.
type countdownCtx struct {
	context.Context
	left atomic.Int64
	done chan struct{}
	once sync.Once
}

func newCountdownCtx(n int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background(), done: make(chan struct{})}
	c.left.Store(n)
	return c
}

func (c *countdownCtx) Done() <-chan struct{} { return c.done }

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		c.once.Do(func() { close(c.done) })
		return context.Canceled
	}
	return nil
}

// TestSplitReductionNeverPublishesPartialMasks cancels split-job runs
// (two workers plus donated helpers, every mask split) at checkpoints
// inside the last mask's order-preserving reduction — the final mask,
// so a reduction that completed it from a partial set would return a
// truncated plan set as a success. Every cancelled run must instead
// fail with the context error, and the uncancelled run must be
// byte-identical to the sequential one.
func TestSplitReductionNeverPublishesPartialMasks(t *testing.T) {
	cfg := workload.Config{Tables: 5, Params: 1, Shape: workload.Chain, Seed: 21}
	run := func(runCtx context.Context) (*core.Result, []byte, error) {
		schema, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		solver := geometry.NewContext()
		model, err := cloud.NewModel(schema, cloud.DefaultConfig(), solver)
		if err != nil {
			t.Fatal(err)
		}
		donor := newPoolDonor(2)
		defer donor.wg.Wait()
		opts := core.DefaultOptions()
		opts.Context = solver
		opts.Workers = 2
		opts.SplitCandidates = 1 // every mask becomes a split job
		opts.Donor = donor
		res, err := core.OptimizeCtx(runCtx, schema, model, opts)
		if err != nil {
			return nil, nil, err
		}
		var buf bytes.Buffer
		if err := store.Save(&buf, model.MetricNames(), model.Space(), res.Plans); err != nil {
			t.Fatal(err)
		}
		return res, buf.Bytes(), nil
	}

	seq := core.DefaultOptions()
	seq.Workers = 1
	_, want := optimizeAndSave(t, cfg, seq)

	// An uncancelled run counts the checkpoints and is untouched by them.
	counter := newCountdownCtx(1 << 62)
	res, got, err := run(counter)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("split-job run's plan set differs from the sequential run")
	}
	if res.Stats.Scheduler.SplitJobs == 0 {
		t.Fatal("no split jobs ran")
	}
	checks := 1<<62 - counter.left.Load()
	if checks <= int64(cfg.Tables) {
		// Beyond the base-table loop, only the reductions read it.
		t.Fatalf("%d context checks: the split reductions never consulted the run context", checks)
	}
	for _, k := range []int64{checks - 1, checks - 2, checks - 5, checks - 20, checks / 2} {
		_, _, err := run(newCountdownCtx(k))
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled at checkpoint %d of %d: err = %v, want context.Canceled", k+1, checks, err)
		}
	}
}

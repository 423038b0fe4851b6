package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"mpq/internal/core"
	"mpq/internal/geometry"
	"mpq/internal/workload"
)

// slowTemplate takes seconds to optimize sequentially — long enough
// that a cancellation mid-optimization is observable.
func slowTemplate() Template {
	return Template{Workload: workload.Config{
		Tables: 5, Params: 2, Shape: workload.Clique, Seed: 3,
	}}
}

func TestPrepareCancelledBeforeStart(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Prepare(ctx, testTemplate(21)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Prepare = %v, want context.Canceled", err)
	}
	if st := s.Stats(); st.Cancellations != 1 {
		t.Errorf("cancellations = %d, want 1", st.Cancellations)
	}
	// The server is unharmed: the same template still prepares.
	if _, err := s.Prepare(context.Background(), testTemplate(21)); err != nil {
		t.Fatalf("Prepare after a cancelled attempt: %v", err)
	}
}

func TestPickDeadlineExpired(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	prep, err := s.Prepare(context.Background(), testTemplate(21))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := s.Pick(ctx, PickRequest{Key: prep.Key, Point: testPoints[0]}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired Pick = %v, want context.DeadlineExceeded", err)
	}
	if _, err := s.PickBatch(ctx, PickBatchRequest{Key: prep.Key, Points: testPoints}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired PickBatch = %v, want context.DeadlineExceeded", err)
	}
	if st := s.Stats(); st.DeadlineExpiries != 2 {
		t.Errorf("deadline expiries = %d, want 2", st.DeadlineExpiries)
	}
}

// TestPrepareAbandonedWhileQueued wedges the only worker, queues a
// Prepare, cancels it, and verifies the abandoned job never runs: the
// caller returns promptly with context.Canceled, and the server keeps
// serving afterwards — no leaked worker, admission slot, or
// singleflight key.
func TestPrepareAbandonedWhileQueued(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 4})
	defer s.Close()

	started := make(chan struct{})
	release := make(chan struct{})
	blocker := &job{done: make(chan struct{}), run: func(w *worker) {
		close(started)
		<-release
	}}
	if err := s.submit(blocker); err != nil {
		t.Fatal(err)
	}
	<-started // the only worker is wedged

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.Prepare(ctx, testTemplate(21))
		errc <- err
	}()
	// Wait for the Prepare to register its singleflight entry (it is
	// then queued behind the blocker).
	for {
		s.mu.Lock()
		n := len(s.inflight)
		s.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("abandoned Prepare = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("abandoned Prepare did not return while its job was queued")
	}

	// The singleflight key must be gone — a wedged one would dedupe all
	// future Prepares of this template into a dead flight.
	s.mu.Lock()
	leaked := len(s.inflight)
	s.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("%d singleflight entries leaked by the abandoned Prepare", leaked)
	}

	close(release)
	prep, err := s.Prepare(context.Background(), testTemplate(21))
	if err != nil {
		t.Fatalf("Prepare after abandonment: %v", err)
	}
	if prep.Cached {
		t.Error("the abandoned Prepare's job ran anyway (result was cached)")
	}
	st := s.Stats()
	if st.Cancellations != 1 {
		t.Errorf("cancellations = %d, want 1", st.Cancellations)
	}
	if st.Admission.Running != 0 || st.Admission.Queued != 0 {
		t.Errorf("admission not quiescent: %+v", st.Admission)
	}
}

// TestPrepareDeadlineMidOptimize cancels an optimization that is
// already running. The scheduler's cooperative checkpoints must stop
// it well before completion (the workload takes seconds sequentially),
// the expiry must be counted, and the same server must then complete
// the same template cleanly — proving the abandoned run released its
// worker, admission slot, and singleflight key.
func TestPrepareDeadlineMidOptimize(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second optimization")
	}
	s := New(Options{Workers: 2})
	defer s.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := s.Prepare(ctx, slowTemplate())
	elapsed := time.Since(start)
	if err == nil {
		t.Skip("optimization finished before the deadline on this machine")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-optimize Prepare = %v, want context.DeadlineExceeded", err)
	}
	// The full optimization takes ~3s sequentially; a cooperative stop
	// must come back far sooner than completion would.
	if elapsed > 2*time.Second {
		t.Errorf("cancelled Prepare took %v — checkpoints not releasing the scheduler", elapsed)
	}
	if st := s.Stats(); st.DeadlineExpiries != 1 {
		t.Errorf("deadline expiries = %d, want 1", st.DeadlineExpiries)
	}

	// The abandoned run must not poison the key: a fresh Prepare of the
	// same template completes and yields a usable plan set.
	prep, err := s.Prepare(context.Background(), slowTemplate())
	if err != nil {
		t.Fatalf("Prepare after mid-optimize abandonment: %v", err)
	}
	if prep.NumPlans == 0 {
		t.Error("post-abandonment Prepare returned an empty plan set")
	}
	if _, err := s.Pick(context.Background(), PickRequest{Key: prep.Key, Point: geometry.Vector{0.5, 0.5}}); err != nil {
		t.Fatalf("Pick after recovery: %v", err)
	}
}

// TestPrepareDeadlineDuringSplitJobs is TestPrepareDeadlineMidOptimize
// with every mask split into a parallel job, two optimizer workers and
// donated pool workers: the split jobs' order-preserving reductions
// must observe the deadline between candidates too, not only between
// chunks, so the Prepare returns promptly; and the abandoned run must
// leave nothing behind.
func TestPrepareDeadlineDuringSplitJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second optimization")
	}
	opts := Options{Workers: 2, DonateWorkers: true}
	opts.Optimizer = core.DefaultOptions()
	opts.Optimizer.Workers = 2
	opts.Optimizer.SplitCandidates = 1 // every mask becomes a split job
	s := New(opts)
	defer s.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := s.Prepare(ctx, slowTemplate())
	elapsed := time.Since(start)
	if err == nil {
		t.Skip("optimization finished before the deadline on this machine")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("split-job Prepare = %v, want context.DeadlineExceeded", err)
	}
	t.Logf("cancelled after %v", elapsed)
	if elapsed > time.Second {
		t.Errorf("cancelled split-job Prepare took %v — reductions not observing the deadline", elapsed)
	}
	if st := s.Stats(); st.CachedPlanSets != 0 || st.DeadlineExpiries != 1 {
		t.Errorf("after the abandoned run: %d cached plan sets, %d deadline expiries; want 0 and 1",
			st.CachedPlanSets, st.DeadlineExpiries)
	}
	// The server is unharmed: a template still prepares through split
	// jobs.
	if _, err := s.Prepare(context.Background(), testTemplate(21)); err != nil {
		t.Fatalf("Prepare after the abandoned split-job run: %v", err)
	}
	if st := s.Stats(); st.SplitJobs == 0 {
		t.Error("no split jobs recorded despite SplitCandidates=1")
	}
}

// TestPrepareWaiterSurvivesCancelledWinner: when the singleflight
// winner's caller gives up, a waiter with a live context must not
// inherit the cancellation — it retries and becomes the new winner.
func TestPrepareWaiterSurvivesCancelledWinner(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second optimization")
	}
	s := New(Options{Workers: 2})
	defer s.Close()

	winnerCtx, cancelWinner := context.WithCancel(context.Background())
	winnerErr := make(chan error, 1)
	go func() {
		_, err := s.Prepare(winnerCtx, slowTemplate())
		winnerErr <- err
	}()
	// Wait until the winner's flight is registered, then join as a
	// waiter with a background context.
	for {
		s.mu.Lock()
		n := len(s.inflight)
		s.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	waiterRes := make(chan error, 1)
	go func() {
		prep, err := s.Prepare(context.Background(), slowTemplate())
		if err == nil && prep.NumPlans == 0 {
			err = errors.New("empty plan set")
		}
		waiterRes <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancelWinner()
	if err := <-winnerErr; err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("winner = %v, want nil or context.Canceled", err)
	}
	select {
	case err := <-waiterRes:
		if err != nil {
			t.Fatalf("waiter inherited the winner's fate: %v", err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("waiter never completed after the winner was cancelled")
	}
}

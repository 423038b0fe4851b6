package obs

import (
	"errors"
	"strings"
	"testing"
)

func TestNilTraceRingIsNoOp(t *testing.T) {
	var r *TraceRing
	if got := NewTraceRing(0); got != nil {
		t.Fatal("NewTraceRing(0) should return the disabled nil ring")
	}
	tr := r.Start("prepare", "k")
	if tr != nil {
		t.Fatal("nil ring should hand out nil traces")
	}
	// Every method must tolerate the nil receiver.
	tr.Phase("lookup")
	tr.SetSource("peer")
	tr.Finish(nil)
	r.Instrument(NewRegistry())
	if ev := r.Events(); ev != nil {
		t.Fatalf("nil ring Events = %v", ev)
	}
	if n := r.Total(); n != 0 {
		t.Fatalf("nil ring Total = %d", n)
	}
}

func TestTraceRingRecordsPhasesAndEvicts(t *testing.T) {
	r := NewTraceRing(2)
	for _, key := range []string{"a", "b", "c"} {
		tr := r.Start("prepare", key)
		tr.Phase("lookup")
		tr.Phase("optimize")
		tr.SetSource("peer")
		tr.Finish(nil)
	}
	ev := r.Events()
	if len(ev) != 2 {
		t.Fatalf("ring kept %d events, want 2", len(ev))
	}
	if ev[0].Key != "b" || ev[1].Key != "c" {
		t.Fatalf("eviction order wrong: %q then %q", ev[0].Key, ev[1].Key)
	}
	if r.Total() != 3 {
		t.Fatalf("Total = %d, want 3", r.Total())
	}
	got := ev[1]
	if got.Op != "prepare" || got.Source != "peer" || got.Error != "" {
		t.Fatalf("event = %+v", got)
	}
	if len(got.Phases) != 2 || got.Phases[0].Name != "lookup" || got.Phases[1].Name != "optimize" {
		t.Fatalf("phases = %+v", got.Phases)
	}
	if got.Total < got.Phases[0].Duration {
		t.Fatalf("total %v shorter than first phase %v", got.Total, got.Phases[0].Duration)
	}
}

func TestTraceFinishWithErrorOverridesSource(t *testing.T) {
	r := NewTraceRing(4)
	tr := r.Start("prepare", "k")
	tr.SetSource("shared")
	tr.Finish(errors.New("boom"))
	ev := r.Events()
	if len(ev) != 1 || ev[0].Source != "error" || ev[0].Error != "boom" {
		t.Fatalf("events = %+v", ev)
	}
}

func TestTraceInstrumentObservesHistograms(t *testing.T) {
	r := NewTraceRing(4)
	reg := NewRegistry()
	r.Instrument(reg)
	tr := r.Start("prepare", "k")
	tr.Phase("lookup")
	tr.Phase("optimize")
	tr.Finish(nil)

	text := render(t, reg)
	for _, want := range []string{
		"mpq_prepare_seconds_count 1",
		`mpq_prepare_phase_seconds_count{phase="lookup"} 1`,
		`mpq_prepare_phase_seconds_count{phase="optimize"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("scrape missing %q:\n%s", want, text)
		}
	}
	fams, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if errs := Lint(fams); len(errs) != 0 {
		t.Fatalf("instrumented scrape fails lint: %v", errs)
	}
}

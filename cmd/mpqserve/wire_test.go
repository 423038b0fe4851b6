package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"mpq/internal/catalog"
	"mpq/internal/plan"
	"mpq/internal/selection"
	"mpq/internal/serve"
	"mpq/internal/store"
)

// The reference wire form of pick answers: json.Encoder over these
// structs is what the append encoder must reproduce byte for byte.

type choiceJS struct {
	Plan string    `json:"plan"`
	Cost []float64 `json:"cost"`
}

type pickRespJS struct {
	Metrics    []string   `json:"metrics"`
	Choices    []choiceJS `json:"choices"`
	Epsilon    float64    `json:"epsilon"`
	Generation int        `json:"generation"`
	Final      bool       `json:"final"`
}

type pickBatchRespJS struct {
	Metrics    []string     `json:"metrics"`
	Choices    [][]choiceJS `json:"choices"`
	Epsilon    float64      `json:"epsilon"`
	Generation int          `json:"generation"`
	Final      bool         `json:"final"`
}

func choicesJS(cs []selection.Choice) []choiceJS {
	out := []choiceJS{}
	for _, c := range cs {
		out = append(out, choiceJS{Plan: c.Plan.String(), Cost: c.Cost})
	}
	return out
}

func pickRef(r serve.PickResult) pickRespJS {
	return pickRespJS{
		Metrics: r.Metrics, Choices: choicesJS(r.Choices),
		Epsilon: r.Epsilon, Generation: r.Generation, Final: r.Final,
	}
}

func pickBatchRef(r serve.PickBatchResult) pickBatchRespJS {
	out := pickBatchRespJS{
		Metrics: r.Metrics, Choices: [][]choiceJS{},
		Epsilon: r.Epsilon, Generation: r.Generation, Final: r.Final,
	}
	for _, cs := range r.Choices {
		out.Choices = append(out.Choices, choicesJS(cs))
	}
	return out
}

// checkEncoding compares the append encoder against json.Encoder over
// the reference struct: same bytes, or the same unsupported value.
func checkEncoding(t *testing.T, encode func(e *pickEncoder) error, ref any) {
	t.Helper()
	var want bytes.Buffer
	wantErr := json.NewEncoder(&want).Encode(ref)
	e := newPickEncoder()
	defer e.free()
	err := encode(e)
	if wantErr != nil || err != nil {
		var we, ge *json.UnsupportedValueError
		if !errors.As(wantErr, &we) || !errors.As(err, &ge) || we.Str != ge.Str {
			t.Fatalf("encoder error %v, reference error %v", err, wantErr)
		}
		return
	}
	if !bytes.Equal(e.buf, want.Bytes()) {
		t.Fatalf("encoder wrote\n%s\nreference\n%s", e.buf, want.Bytes())
	}
}

// fuzzResults builds a pick and a batch answer exercising every shape
// the encoder distinguishes: nil and empty costs, repeated plans (the
// name memo), empty choice lists, and strings needing escapes.
func fuzzResults(costs []float64, op, metric string, table uint8, eps float64, gen int, final bool) (serve.PickResult, serve.PickBatchResult) {
	t := catalog.TableID(table % 32)
	scan := plan.Scan(t, op)
	join := plan.Join(metric, scan, plan.Scan(t+1, op+metric))
	choices := []selection.Choice{
		{Plan: join, Cost: costs},
		{Plan: scan, Cost: costs[1:]},
		{Plan: join, Cost: nil},
		{Plan: scan, Cost: []float64{}},
	}
	metrics := []string{metric, op}
	pick := serve.PickResult{Metrics: metrics, Choices: choices, Epsilon: eps, Generation: gen, Final: final}
	batch := serve.PickBatchResult{
		Metrics:    metrics,
		Choices:    [][]selection.Choice{choices, nil, choices[2:], {}},
		Epsilon:    eps,
		Generation: gen,
		Final:      final,
	}
	return pick, batch
}

// TestPickEncodingMatchesReference pins the encoder to encoding/json
// on fixed edge cases: float formatting boundaries, nil metrics,
// escapes, and non-finite values.
func TestPickEncodingMatchesReference(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 1e-7, 9.999999e-7, 123456789.125,
		1e20, 1e21, 999999999999999999999.0, 1e100, -1e-300, 5e-324, math.MaxFloat64,
		math.SmallestNonzeroFloat64, 1.7976931348623157e308, 2.5e-8, 1e-10,
	}
	strs := []string{"", "scan", "a<b>&c", "line sep ", "bad\xffutf8", "quote\"back\\slash", "\x00\x1f\t\n"}
	for i, f := range floats {
		s := strs[i%len(strs)]
		costs := []float64{f, -f, floats[(i+1)%len(floats)]}
		pick, batch := fuzzResults(costs, s, strs[(i+3)%len(strs)], uint8(i), f, i-3, i%2 == 0)
		checkEncoding(t, func(e *pickEncoder) error { return e.pick(pick) }, pickRef(pick))
		checkEncoding(t, func(e *pickEncoder) error { return e.pickBatch(batch) }, pickBatchRef(batch))
	}
	// Absent metrics and choices.
	checkEncoding(t, func(e *pickEncoder) error { return e.pick(serve.PickResult{}) }, pickRef(serve.PickResult{}))
	checkEncoding(t, func(e *pickEncoder) error { return e.pickBatch(serve.PickBatchResult{}) }, pickBatchRef(serve.PickBatchResult{}))
	// Non-finite costs and factors fail exactly as encoding/json fails.
	for _, f := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		pick, batch := fuzzResults([]float64{1, f}, "op", "m", 0, 0, 0, true)
		checkEncoding(t, func(e *pickEncoder) error { return e.pick(pick) }, pickRef(pick))
		checkEncoding(t, func(e *pickEncoder) error { return e.pickBatch(batch) }, pickBatchRef(batch))
		pick, _ = fuzzResults([]float64{1, 2}, "op", "m", 0, f, 0, true)
		checkEncoding(t, func(e *pickEncoder) error { return e.pick(pick) }, pickRef(pick))
	}
}

// FuzzPickResponseEncoding differentially checks the append encoder
// against json.Encoder over arbitrary float bit patterns, operator and
// metric names, and generation fields.
func FuzzPickResponseEncoding(f *testing.F) {
	bits := math.Float64bits
	f.Add(bits(0), bits(math.Copysign(0, -1)), bits(1e-7), "scan", "time", uint8(0), bits(1e21), 1, true)
	f.Add(bits(5e-324), bits(1e-6), bits(math.MaxFloat64), "a<b>&", "line\u2028sep", uint8(9), bits(-1e-300), 0, false)
	f.Add(bits(123.456), bits(999999999999999999999.0), bits(2.5e-8), "bad\xffutf8", "\"\\", uint8(31), bits(1e-7), -2, true)
	f.Add(bits(1), bits(math.Inf(1)), bits(2), "op", "m", uint8(1), bits(0.05), 0, true)
	f.Fuzz(func(t *testing.T, c0, c1, c2 uint64, op, metric string, table uint8, epsBits uint64, gen int, final bool) {
		costs := []float64{math.Float64frombits(c0), math.Float64frombits(c1), math.Float64frombits(c2)}
		pick, batch := fuzzResults(costs, op, metric, table, math.Float64frombits(epsBits), gen, final)
		checkEncoding(t, func(e *pickEncoder) error { return e.pick(pick) }, pickRef(pick))
		checkEncoding(t, func(e *pickEncoder) error { return e.pickBatch(batch) }, pickBatchRef(batch))
	})
}

// frontierBatch prepares prepareLine on s and returns its key and a
// fixed 64-point frontier batch request over it.
func frontierBatch(t testing.TB, s *serve.Server) (string, serve.PickBatchRequest) {
	t.Helper()
	var body prepareReqJS
	if err := json.Unmarshal([]byte(prepareLine), &body); err != nil {
		t.Fatal(err)
	}
	prep, err := doPrepare(context.Background(), s, body)
	if err != nil {
		t.Fatal(err)
	}
	req := serve.PickBatchRequest{Key: prep.Key, Policy: serve.PolicyFrontier}
	for i := 0; i < 64; i++ {
		req.Points = append(req.Points, []float64{(float64(i) + 0.5) / 64})
	}
	return prep.Key, req
}

// TestPickBatchEncodingAllocs is the deterministic allocation gate of
// the pick wire path: encoding a fixed 64-point frontier batch (the
// answer encoding/json needed thousands of allocations for) must stay
// within a small constant budget, and still match the reference.
func TestPickBatchEncodingAllocs(t *testing.T) {
	s := serve.New(serve.Options{Workers: 1, Index: true})
	defer s.Close()
	_, req := frontierBatch(t, s)
	res, err := s.PickBatch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	checkEncoding(t, func(e *pickEncoder) error { return e.pickBatch(res) }, pickBatchRef(res))
	allocs := testing.AllocsPerRun(100, func() {
		e := newPickEncoder()
		if err := e.pickBatch(res); err != nil {
			t.Fatal(err)
		}
		e.free()
	})
	if allocs > 100 {
		t.Errorf("encoding a 64-point frontier batch: %v allocations, want <= 100", allocs)
	}
}

// BenchmarkHTTPPickBatch measures one /pickbatch round trip of the
// fixed 64-point frontier batch through the HTTP handler, allocations
// included.
func BenchmarkHTTPPickBatch(b *testing.B) {
	s := serve.New(serve.Options{Workers: 1, Index: true})
	defer s.Close()
	key, req := frontierBatch(b, s)
	wire := pickBatchReqJS{Key: key, Policy: string(req.Policy)}
	for _, x := range req.Points {
		wire.Points = append(wire.Points, x)
	}
	body, err := json.Marshal(wire)
	if err != nil {
		b.Fatal(err)
	}
	mux := newMux(s)
	b.ReportAllocs()
	for b.Loop() {
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/pickbatch", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
}

// memStore is an in-memory shared plan-set store.
type memStore struct {
	mu   sync.Mutex
	docs map[string][]byte
}

func (m *memStore) Get(key string) ([]byte, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	doc, ok := m.docs[key]
	return doc, ok, nil
}

func (m *memStore) Put(key string, doc []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.docs[key] = doc
	return nil
}

func (m *memStore) Flush() error { return nil }

// overflowingServer returns a server whose plan set for prepareLine
// (key returned) has first-metric cost coefficients so large that every
// plan's cost overflows to +Inf at any positive parameter value.
func overflowingServer(t *testing.T) (*serve.Server, string) {
	t.Helper()
	shared := &memStore{docs: map[string][]byte{}}
	a := serve.New(serve.Options{Workers: 1, Shared: shared})
	var body prepareReqJS
	if err := json.Unmarshal([]byte(prepareLine), &body); err != nil {
		t.Fatal(err)
	}
	prep, err := doPrepare(context.Background(), a, body)
	a.Close()
	if err != nil {
		t.Fatal(err)
	}
	var doc store.Document
	if err := json.Unmarshal(shared.docs[prep.Key], &doc); err != nil {
		t.Fatal(err)
	}
	for _, p := range doc.Plans {
		for i := range p.Cost.Components[0].Pieces {
			piece := &p.Cost.Components[0].Pieces[i]
			piece.B = math.MaxFloat64
			for j := range piece.W {
				piece.W[j] = math.MaxFloat64
			}
		}
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	shared.docs[prep.Key] = raw

	s := serve.New(serve.Options{Workers: 1, Shared: shared})
	t.Cleanup(s.Close)
	if res, err := doPrepare(context.Background(), s, body); err != nil || !res.Cached {
		t.Fatalf("prepare from the doctored document: %+v, %v", res, err)
	}
	return s, prep.Key
}

// TestNonFiniteCostAnswers500: a cost JSON cannot carry fails the
// encoder before anything is written, answers 500 with a JSON error on
// HTTP and in-band on stdin (where the server keeps serving), and is
// logged as a 500.
func TestNonFiniteCostAnswers500(t *testing.T) {
	var logBuf bytes.Buffer
	accessLog = newAccessLogger(&logBuf)
	defer func() { accessLog = nil }()

	s, key := overflowingServer(t)
	res, err := s.Pick(context.Background(), serve.PickRequest{Key: key, Point: []float64{0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Choices) == 0 || !math.IsInf(res.Choices[0].Cost[0], 1) {
		t.Fatalf("doctored plan set picked %+v, want a +Inf cost", res.Choices)
	}
	e := newPickEncoder()
	err = e.pick(res)
	var uv *json.UnsupportedValueError
	if !errors.As(err, &uv) || uv.Str != "+Inf" {
		t.Fatalf("encoding a +Inf cost: %v, want an unsupported +Inf value", err)
	}
	e.free()

	ts := httptest.NewServer(newMux(s))
	defer ts.Close()
	pick := fmt.Sprintf(`{"key":%q,"point":[0.5]}`, key)
	batch := fmt.Sprintf(`{"key":%q,"points":[[0.2],[0.5]]}`, key)
	for path, body := range map[string]string{"/pick": pick, "/pickbatch": batch} {
		status, got := httpPost(t, ts.URL+path, body)
		var e errorJS
		if err := json.Unmarshal(got, &e); err != nil || status != http.StatusInternalServerError || !strings.Contains(e.Error, "+Inf") {
			t.Errorf("%s: status %d body %q, want 500 with a JSON error naming +Inf", path, status, got)
		}
	}

	in := `{"op":"pick",` + pick[1:] + "\n" + `{"op":"pickbatch",` + batch[1:] + "\n" + `{"op":"stats"}` + "\n"
	var out bytes.Buffer
	if err := runStdin(context.Background(), s, strings.NewReader(in), &out); err != nil {
		t.Fatalf("stdin transport stopped on a +Inf cost: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("stdin answered %d lines for 3 requests:\n%s", len(lines), out.String())
	}
	for _, l := range lines[:2] {
		var e errorJS
		if err := json.Unmarshal([]byte(l), &e); err != nil || !strings.Contains(e.Error, "+Inf") {
			t.Errorf("stdin answer %q, want an in-band error naming +Inf", l)
		}
	}

	dec := json.NewDecoder(&logBuf)
	var statuses []int
	for dec.More() {
		var rec accessRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		if rec.Op == "pick" || rec.Op == "pickbatch" {
			statuses = append(statuses, rec.Status)
		}
	}
	if fmt.Sprint(statuses) != "[500 500 500 500]" {
		t.Errorf("logged pick statuses %v, want four 500s", statuses)
	}
}

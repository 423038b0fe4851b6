package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mpq/internal/serve"
)

// TestHTTPAnytimePrepare: on a -refine-ladder server, a deadline-bound
// Prepare of a cold template answers with the coarse generation — the
// epsilon/generation/final response fields and the access-log record
// say so — and once background refinement settles, picks on the same
// key answer from the final generation.
func TestHTTPAnytimePrepare(t *testing.T) {
	var logBuf bytes.Buffer
	accessLog = newAccessLogger(&logBuf)
	defer func() { accessLog = nil }()

	s := serve.New(serve.Options{Workers: 2, RefineLadder: []float64{0.5, 0.1}})
	defer s.Close()
	ts := httptest.NewServer(newMux(s))
	defer ts.Close()

	status, body := httpPost(t, ts.URL+"/prepare",
		`{"workload":{"tables":4,"params":1,"shape":"chain","seed":21},"deadline_ms":120000}`)
	if status != http.StatusOK {
		t.Fatalf("prepare: %d %s", status, body)
	}
	var prep prepareRespJS
	if err := json.Unmarshal(body, &prep); err != nil {
		t.Fatal(err)
	}
	if prep.Cached || prep.Final || prep.Epsilon != 0.5 || prep.Generation != 0 {
		t.Fatalf("anytime prepare = %+v, want the coarse ε=0.5 generation", prep)
	}

	wctx, wcancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer wcancel()
	if err := s.WaitRefinement(wctx); err != nil {
		t.Fatal(err)
	}

	status, body = httpPost(t, ts.URL+"/pick", `{"key":"`+prep.Key+`","point":[0.5]}`)
	if status != http.StatusOK {
		t.Fatalf("pick: %d %s", status, body)
	}
	var pick pickRespJS
	if err := json.Unmarshal(body, &pick); err != nil {
		t.Fatal(err)
	}
	if !pick.Final || pick.Epsilon != 0 || pick.Generation != 2 {
		t.Errorf("post-refinement pick = eps %g gen %d final %v, want the final generation",
			pick.Epsilon, pick.Generation, pick.Final)
	}

	var recs []accessRecord
	dec := json.NewDecoder(&logBuf)
	for dec.More() {
		var rec accessRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	if len(recs) != 2 {
		t.Fatalf("logged %d records, want 2: %+v", len(recs), recs)
	}
	if recs[0].Op != "prepare" || recs[0].Epsilon != 0.5 || recs[0].Generation != 0 {
		t.Errorf("prepare record = %+v, want epsilon 0.5 generation 0", recs[0])
	}
	if recs[1].Op != "pick" || recs[1].Epsilon != 0 || recs[1].Generation != 2 {
		t.Errorf("pick record = %+v, want epsilon 0 generation 2", recs[1])
	}
}

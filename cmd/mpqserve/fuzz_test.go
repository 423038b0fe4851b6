package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mpq/internal/serve"
)

// fuzzDeadline bounds each fuzzed request, so a well-formed body that
// names an expensive template costs a bounded slice of the run.
const fuzzDeadline = 200 * time.Millisecond

// FuzzHTTPRequests feeds untrusted bodies to the request decoders:
// every input is POSTed to /prepare, /pick and /pickbatch and handed to
// the stdin protocol as one line. No input may panic; every non-200
// answer carries a JSON error; a body that does not decode as the
// endpoint's request is a 400, never a 5xx.
func FuzzHTTPRequests(f *testing.F) {
	// The error paths of the transport tests, plus well-formed requests.
	for _, seed := range []string{
		`{"op":"pick",`,
		`GET / HTTP/1.1`,
		strings.Repeat("a", 600),
		`{"op":"explode"}`,
		`{"op":"pick","key":"nope","point":[0.5]}`,
		`{"op":"prepare","deadline_ms":1,` + slowPrepareLine + `}`,
		`{"op":"prepare",` + prepareLine[1:],
		`{"op":"stats"}`,
		`{"workload":{"tables":3,"shape":"dodecahedron"}}`,
		`{"workload":{"tables":4,"params":1,"shape":"chain","seed":21},"epsilon":1.5}`,
		`{"key":"missing","points":[[0.5],[9]]}`,
		`{"op":"pickbatch","key":"0123456789abcdef0123456789abcdef","points":[[0.5]],"policy":"weighted"}`,
		`{"key":"x"} trailing`,
		`[]`,
		`null`,
	} {
		f.Add([]byte(seed))
	}

	s := serve.New(serve.Options{Workers: 1, Index: true, CacheBytes: 8 << 20})
	f.Cleanup(s.Close)
	mux := newMux(s)
	var logBuf bytes.Buffer
	saved := accessLog
	accessLog = newAccessLogger(&logBuf)
	f.Cleanup(func() { accessLog = saved })

	f.Fuzz(func(t *testing.T, body []byte) {
		requests := []struct {
			path string
			req  any
		}{
			{"/prepare", new(prepareReqJS)},
			{"/pick", new(pickReqJS)},
			{"/pickbatch", new(pickBatchReqJS)},
		}
		for _, r := range requests {
			ctx, cancel := context.WithTimeout(context.Background(), fuzzDeadline)
			w := httptest.NewRecorder()
			mux.ServeHTTP(w, httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(body)).WithContext(ctx))
			cancel()
			malformed := json.NewDecoder(bytes.NewReader(body)).Decode(r.req) != nil
			checkAnswer(t, r.path, w.Code, w.Body.Bytes(), malformed)
		}

		logBuf.Reset()
		var out bytes.Buffer
		ctx, cancel := context.WithTimeout(context.Background(), fuzzDeadline)
		err := handleLine(ctx, s, &out, stdinLine{data: body})
		cancel()
		if err != nil {
			t.Fatalf("stdin: output error %v", err)
		}
		var rec accessRecord
		if err := json.Unmarshal(logBuf.Bytes(), &rec); err != nil {
			t.Fatalf("stdin: access log %q: %v", logBuf.Bytes(), err)
		}
		var op struct {
			Op string `json:"op"`
		}
		checkAnswer(t, "stdin", rec.Status, out.Bytes(), json.Unmarshal(body, &op) != nil)
	})
}

// checkAnswer applies the decoder contract to one answer.
func checkAnswer(t *testing.T, where string, status int, body []byte, malformed bool) {
	t.Helper()
	if malformed && status != http.StatusBadRequest {
		t.Fatalf("%s: malformed body answered %d: %s", where, status, body)
	}
	if !json.Valid(body) {
		t.Fatalf("%s: status %d answer is not JSON: %q", where, status, body)
	}
	if status != http.StatusOK {
		var e errorJS
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Fatalf("%s: status %d answer carries no error: %s", where, status, body)
		}
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mpq/internal/fleet"
	"mpq/internal/serve"
)

// TestPlanSetEndpoint: GET /planset/{key} serves the serialized
// document for peers, and a second server configured with the first as
// a peer prepares from it without computing.
func TestPlanSetEndpoint(t *testing.T) {
	shared, err := fleet.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a := serve.New(serve.Options{Workers: 1, Index: true, Shared: shared})
	defer a.Close()
	tsA := httptest.NewServer(newMux(a))
	defer tsA.Close()

	resp, err := http.Post(tsA.URL+"/prepare", "application/json", strings.NewReader(prepareLine))
	if err != nil {
		t.Fatal(err)
	}
	var prep prepareRespJS
	if err := json.NewDecoder(resp.Body).Decode(&prep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if prep.Key == "" {
		t.Fatalf("prepare response %+v", prep)
	}

	// The document endpoint serves the exact bytes.
	resp, err = http.Get(tsA.URL + fleet.PlanSetPath + prep.Key)
	if err != nil {
		t.Fatal(err)
	}
	doc, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(doc) == 0 {
		t.Fatalf("planset status %d, %d bytes", resp.StatusCode, len(doc))
	}
	var probe struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(doc, &probe); err != nil || probe.Version == 0 {
		t.Fatalf("planset endpoint returned a non-document: %v (%q...)", err, doc[:min(len(doc), 40)])
	}
	if resp, err := http.Get(tsA.URL + fleet.PlanSetPath + "unknown"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown planset status = %d, want 404", resp.StatusCode)
		}
	}
	// A %2F-encoded path-traversal "key" must 404 without ever reaching
	// the filesystem (ServeMux decodes the escapes after routing, so the
	// raw PathValue carries the dots and slashes).
	if resp, err := http.Get(tsA.URL + fleet.PlanSetPath + "..%2F..%2Fetc%2Fpasswd"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("traversal planset status = %d, want 404", resp.StatusCode)
		}
	}

	// Server B fetches from A instead of computing.
	b := serve.New(serve.Options{
		Workers: 1, Index: true,
		Peers: fleet.NewPeerClient([]string{tsA.URL}, 0),
	})
	defer b.Close()
	tsB := httptest.NewServer(newMux(b))
	defer tsB.Close()
	resp, err = http.Post(tsB.URL+"/prepare", "application/json", strings.NewReader(prepareLine))
	if err != nil {
		t.Fatal(err)
	}
	var prepB prepareRespJS
	if err := json.NewDecoder(resp.Body).Decode(&prepB); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !prepB.Cached || prepB.Key != prep.Key {
		t.Errorf("peer prepare: cached=%v key match=%v", prepB.Cached, prepB.Key == prep.Key)
	}
	if st := b.Stats(); st.PeerHits != 1 {
		t.Errorf("peer hits = %d, want 1", st.PeerHits)
	}

	// Picks through both servers agree byte-identically.
	pick := fmt.Sprintf(`{"key":%q,"point":[0.5],"policy":"frontier"}`, prep.Key)
	var got [2]string
	for i, ts := range []*httptest.Server{tsA, tsB} {
		resp, err := http.Post(ts.URL+"/pick", "application/json", strings.NewReader(pick))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		got[i] = buf.String()
	}
	if got[0] != got[1] {
		t.Errorf("picks differ between compute and peer server:\n  a: %s\n  b: %s", got[0], got[1])
	}
}

// TestGracefulShutdownHTTP: cancelling the run context makes runHTTP
// drain and return instead of killing in-flight requests.
func TestGracefulShutdownHTTP(t *testing.T) {
	s := serve.New(serve.Options{Workers: 1})
	defer s.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- runHTTP(ctx, s, addr, 2*time.Second, newMux(s)) }()

	// Wait for the listener, issue a request, then signal shutdown.
	var resp *http.Response
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err = http.Get("http://" + addr + "/stats")
		if err == nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("server never came up on %s: %v", addr, err)
	}
	resp.Body.Close()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("runHTTP returned %v after graceful shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("runHTTP did not return after cancellation")
	}
	// The server still drains its queue and flushes cleanly.
	s.Close()
}

// syncBuffer is a mutex-guarded buffer so the test can poll output
// written from the server goroutine without a data race.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Len()
}

// TestGracefulShutdownStdin: cancelling the context stops the line
// protocol cleanly even with the input still open.
func TestGracefulShutdownStdin(t *testing.T) {
	s := serve.New(serve.Options{Workers: 1})
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	defer pw.Close()
	var out syncBuffer
	done := make(chan error, 1)
	go func() { done <- runStdin(ctx, s, pr, &out) }()
	// One answered request, then shutdown with the pipe still open.
	if _, err := pw.Write([]byte(`{"op":"stats"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for out.Len() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("runStdin returned %v after cancellation", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("runStdin did not return after cancellation")
	}
	if out.Len() == 0 {
		t.Error("stats request was not answered before shutdown")
	}
}

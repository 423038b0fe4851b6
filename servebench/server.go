package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mpq/internal/serve"
)

// server is one mpqserve subprocess on a loopback port.
type server struct {
	cmd  *exec.Cmd
	base string
	hc   *http.Client
	log  *os.File
	done chan error
}

// startServer launches mpqserve with the given flags and waits until it
// answers /stats.
func startServer(bin, logPath string, args []string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server dies with the benchmark, even when the benchmark is
	// killed before it can stop the server itself.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{
		cmd:  cmd,
		base: "http://" + addr,
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 4,
			DisableCompression:  true,
		}},
		log:  logf,
		done: make(chan error, 1),
	}
	go func() { s.done <- cmd.Wait() }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := s.hc.Get(s.base + "/stats")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case werr := <-s.done:
			s.done <- werr
			s.stop()
			return nil, fmt.Errorf("mpqserve exited before serving: %v (log %s)", werr, logPath)
		case <-time.After(250 * time.Microsecond):
			// Short polls: set-up of a bare server takes milliseconds.
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("mpqserve not ready after 30s (log %s)", logPath)
		}
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// stop shuts the server down gracefully (SIGTERM), killing it if it has
// not exited within the grace period, and waits for it.
func (s *server) stop() {
	s.hc.CloseIdleConnections()
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
	s.log.Close()
}

// post sends one request body and returns the answer and its latency.
// The answer's body is read into buf (reset first) and aliases it.
func (s *server) post(ctx context.Context, path string, body []byte, buf *bytes.Buffer) (answer, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+path, bytes.NewReader(body))
	if err != nil {
		return answer{}, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	buf.Reset()
	start := time.Now()
	resp, err := s.hc.Do(req)
	if err != nil {
		return answer{}, time.Since(start), err
	}
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	return answer{resp.StatusCode, buf.Bytes()}, lat, err
}

// stats fetches the server's counters (serve.Stats as JSON).
func (s *server) stats() (serve.Stats, error) {
	var st serve.Stats
	resp, err := s.hc.Get(s.base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// cpu returns the server process's user+system CPU time.
func (s *server) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat: %v %v", err1, err2)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc CPU times on Linux.
const clockTicks = 100

// peakRSS returns the server's peak resident set size (VmHWM) in bytes.
func (s *server) peakRSS() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseInt(f[1], 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// digest is the fingerprint of one answer kept during the timed run
// (holding every batch body would cost hundreds of megabytes): the
// status, the length and a 64-bit hash of the body, cheap enough to
// leave the client's loop unaffected.
type digest struct {
	status int
	size   int
	sum    uint64
}

// digestSeed is fixed per process: digests are only compared within
// one run.
var digestSeed = maphash.MakeSeed()

func digestOf(a answer) digest {
	return digest{a.Status, len(a.Body), maphash.Bytes(digestSeed, a.Body)}
}

// stealTicks returns the machine's steal and total CPU ticks from the
// first line of /proc/stat (zeros where it cannot be read).
func stealTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

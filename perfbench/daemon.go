package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one backboned process the benchmark started.
type daemon struct {
	addr string
	cmd  *exec.Cmd
	exit chan error // receives the process's exit once
	log  *os.File
}

// startDaemon starts backboned on addr with GOMAXPROCS=procs and the
// given extra flags, logging to logPath, and waits for /readyz.
func startDaemon(ctx context.Context, bin, addr string, procs int, args []string, logPath string) (*daemon, error) {
	log, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	d := &daemon{addr: addr, log: log, exit: make(chan error, 1)}
	d.cmd = exec.Command(bin, append([]string{"-addr", addr, "-drain", "2s"}, args...)...)
	d.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	d.cmd.Stdout, d.cmd.Stderr = log, log
	// The daemon dies with the benchmark even if the benchmark is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("start backboned: %w", err)
	}
	go func() { d.exit <- d.cmd.Wait() }()
	if err := d.waitReady(ctx); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

func (d *daemon) waitReady(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, d.url("/readyz"), nil)
		if resp, err := probeClient.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case err := <-d.exit:
			d.exit <- err
			return fmt.Errorf("backboned on %s exited before ready: %v (log %s)", d.addr, err, d.log.Name())
		case <-ctx.Done():
			return fmt.Errorf("backboned on %s not ready: %w", d.addr, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stop sends SIGTERM, waits for the process to end (killing it after a
// grace period) and closes its log.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exit:
	case <-time.After(5 * time.Second):
		d.cmd.Process.Kill()
		<-d.exit
	}
	d.log.Close()
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func (d *daemon) peakRSSMB() (float64, error) { return procStatusMB(d.cmd.Process.Pid, "VmHWM:") }

func procStatusMB(pid int, field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse %s %q: %w", field, rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// freeAddrs reserves n loopback ports and releases them for daemons.
func freeAddrs(n int) ([]string, error) {
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	var out []string
	for range n {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		out = append(out, l.Addr().String())
	}
	return out, nil
}

// probeClient carries set-up, warm-up and /statsz traffic, which is not
// part of the measured load.
var probeClient = &http.Client{Timeout: 60 * time.Second}

// statsz is the part of backboned's /statsz the benchmark reads.
type statsz struct {
	GraphCache cacheStats `json:"graph_cache"`
	ScoreCache cacheStats `json:"score_cache"`
	Sessions   struct {
		Reads        uint64 `json:"reads"`
		RescoredRows uint64 `json:"rescored_rows"`
		FullRescores uint64 `json:"full_rescores"`
	} `json:"sessions"`
	Admission struct {
		Fast      laneStats             `json:"fast"`
		Cold      laneStats             `json:"cold"`
		Decreases uint64                `json:"limit_decreases"`
		Latency   map[string]keyLatency `json:"latency_ms"`
	} `json:"admission"`
	Fleet *struct {
		Peers []struct {
			Addr      string `json:"addr"`
			Forwards  uint64 `json:"forwards"`
			Retries   uint64 `json:"retries"`
			Fallbacks uint64 `json:"fallbacks"`
		} `json:"peers"`
	} `json:"fleet"`
}

type cacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Bytes     int64  `json:"bytes"`
}

type laneStats struct {
	Admitted      uint64 `json:"admitted"`
	Sheds         uint64 `json:"sheds"`
	QueueTimeouts uint64 `json:"queue_timeouts"`
}

type keyLatency struct {
	Samples int     `json:"samples"`
	P50Ms   float64 `json:"p50_ms"`
}

func (d *daemon) statsz(ctx context.Context) (*statsz, error) {
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, d.url("/statsz"), nil)
	resp, err := probeClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /statsz on %s: %s", d.addr, resp.Status)
	}
	var st statsz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decode /statsz on %s: %w", d.addr, err)
	}
	return &st, nil
}

// post sends a set-up or warm-up request and returns the body of a 2xx
// response.
func post(ctx context.Context, url, contentType string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	return do(probeClient, req)
}

func get(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return do(probeClient, req)
}

// errStatus is a non-2xx response.
type errStatus struct {
	code int
	body string
}

func (e *errStatus) Error() string {
	return fmt.Sprintf("HTTP %d: %s", e.code, strings.TrimSpace(e.body))
}

func do(c *http.Client, req *http.Request) ([]byte, error) {
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, &errStatus{code: resp.StatusCode, body: string(b)}
	}
	return b, nil
}

// isStatus reports whether err is a non-2xx response, which backboned
// returns before a request changes any state.
func isStatus(err error) bool {
	var es *errStatus
	return errors.As(err, &es)
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/engine"
)

// server is one xbarserver process booted on a private copy of the seeded
// journal. It runs with shipped defaults except the addresses, the journal
// directory (fsync on) and the ops listener the benchmark reads MemStats
// from.
type server struct {
	cmd        *exec.Cmd
	base, ops  string
	journalDir string
	logFile    *os.File
	exited     chan struct{}
}

// freeAddr reserves a loopback port for a child process to bind.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// errPortTaken reports a boot that lost its reserved port to another
// process between the reservation and the server's bind.
var errPortTaken = errors.New("port taken")

// bootServer copies the seeded journal to a fresh directory, starts the
// server on it and waits for the first 200 from /readyz. The returned
// duration runs from exec to that answer, so it includes journal replay.
// A boot whose reserved port was taken meanwhile is retried on new ports.
func bootServer(bin, seedJournal, work string, n int) (*server, time.Duration, error) {
	for attempt := 0; ; attempt++ {
		s, d, err := tryBoot(bin, seedJournal, work, n)
		if !errors.Is(err, errPortTaken) || attempt == 4 {
			return s, d, err
		}
	}
}

func tryBoot(bin, seedJournal, work string, n int) (*server, time.Duration, error) {
	dir := filepath.Join(work, fmt.Sprintf("journal-%d", n))
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	if err := copyDir(seedJournal, dir); err != nil {
		return nil, 0, fmt.Errorf("copying seeded journal: %w", err)
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	ops, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logFile, err := os.Create(filepath.Join(work, fmt.Sprintf("server-%d.log", n)))
	if err != nil {
		return nil, 0, err
	}
	s := &server{
		base: "http://" + addr, ops: "http://" + ops, journalDir: dir,
		logFile: logFile, exited: make(chan struct{}),
	}
	s.cmd = exec.Command(bin, "-addr", addr, "-ops-addr", ops, "-journal-dir", dir)
	s.cmd.Stdout, s.cmd.Stderr = logFile, logFile
	client := &http.Client{Timeout: time.Second}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		//xbar:allow errcheck-durable the log of a process that never started holds nothing; the start error is what the caller sees
		logFile.Close()
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() { _ = s.cmd.Wait(); close(s.exited) }()
	deadline := start.Add(60 * time.Second)
	for {
		resp, err := client.Get(s.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case <-s.exited:
			s.stop()
			log, _ := os.ReadFile(logFile.Name())
			if bytes.Contains(log, []byte("address already in use")) {
				return nil, 0, errPortTaken
			}
			return nil, 0, fmt.Errorf("xbarserver exited during start-up:\n%s", log[max(0, len(log)-2000):])
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, fmt.Errorf("xbarserver not ready after 60s (log %s)", logFile.Name())
		}
	}
}

// stop sends SIGTERM, waits for the process to exit (killing it after 20
// s) and removes its journal copy.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	//xbar:allow errcheck-durable the server log is read only for diagnostics; a lost tail changes no result
	s.logFile.Close()
	_ = os.RemoveAll(s.journalDir)
}

// cpuTime is the process's user+system CPU time from /proc.
func (s *server) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3, utime
	// and stime are fields 14 and 15, in clock ticks (USER_HZ = 100).
	f := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line")
	}
	return time.Duration(utime+stime) * 10 * time.Millisecond, nil
}

// scrape reads the Prometheus exposition into series → value, keyed by
// the series text before the value ("name{labels}").
func (s *server) scrape(ctx context.Context) (map[string]float64, error) {
	body, err := get(ctx, s.base+"/metrics")
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// memStats forces two GCs in the server and returns the runtime.MemStats
// fields the heap profile's debug output lists ("# HeapInuse = N"). The
// second collection frees what sync.Pool caches kept through the first,
// so the reading does not depend on which pools happened to be full.
func (s *server) memStats(ctx context.Context) (map[string]float64, error) {
	if _, err := get(ctx, s.ops+"/debug/pprof/heap?gc=1"); err != nil {
		return nil, err
	}
	body, err := get(ctx, s.ops+"/debug/pprof/heap?gc=1&debug=1")
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		name, val, ok := strings.Cut(strings.TrimPrefix(sc.Text(), "# "), " = ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	if _, ok := out["HeapInuse"]; !ok {
		return nil, fmt.Errorf("heap profile lacks HeapInuse")
	}
	return out, sc.Err()
}

func get(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}

// sumSeries adds every series of one metric family member (name with any
// labels, or name alone).
func sumSeries(m map[string]float64, name string) float64 {
	var total float64
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// copyDir copies the journal directory src to dst and makes the copy
// durable before returning, so writing it back to disk does not stall the
// server's own fsyncs during start-up or the timed phase.
func copyDir(src, dst string) error {
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if d.Name() == "LOCK" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return writeDurable(target, data)
	})
	if err != nil {
		return err
	}
	return syncPath(dst)
}

func writeDurable(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		//xbar:allow errcheck-durable cleanup on the failed-write path; the write error is what the caller sees
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		//xbar:allow errcheck-durable cleanup on the failed-sync path; the sync error is what the caller sees
		f.Close()
		return err
	}
	return f.Close()
}

func syncPath(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		//xbar:allow errcheck-durable cleanup on the failed-sync path; the sync error is what the caller sees
		f.Close()
		return err
	}
	return f.Close()
}

// ensureJournal returns the seeded journal directory, building it on first
// use: journalRecords real engine results of journalJob, produced in
// process without timing. It is cached per benchmark binary, whose code
// is the server's.
func ensureJournal(ctx context.Context, build string) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(bin)
	dir, err := filepath.Abs(filepath.Join(build, "journal-"+hex.EncodeToString(sum[:])[:16]))
	if err != nil {
		return "", err
	}
	if _, err := os.Stat(filepath.Join(dir, "COMPLETE")); err == nil {
		return dir, nil
	}
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return "", err
	}
	e := engine.New(engine.Options{JournalDir: tmp, JournalNoSync: true, JournalCompactInterval: -1})
	for lo := 0; lo < journalRecords; lo += 1000 {
		jobs := make([]engine.JobSpec, 0, 1000)
		for i := lo; i < min(lo+1000, journalRecords); i++ {
			jobs = append(jobs, journalJob(i))
		}
		res, err := e.Run(ctx, jobs)
		if err != nil {
			e.Close()
			return "", err
		}
		for _, r := range res {
			if r.Err != "" {
				e.Close()
				return "", fmt.Errorf("seeding journal: %s", r.Err)
			}
		}
	}
	e.Close()
	if err := os.Remove(filepath.Join(tmp, "LOCK")); err != nil {
		return "", err
	}
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, dir); err != nil {
		return "", err
	}
	return dir, os.WriteFile(filepath.Join(dir, "COMPLETE"), nil, 0o644)
}

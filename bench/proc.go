package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env holds the places the benchmark reads and writes — all inside the
// checkout; out is bench/out, ignored by git — and the daemons it has
// running, so that every exit path, SIGINT included, can stop them.
type env struct {
	root, out, bin, tmp string

	mu   sync.Mutex
	live map[*daemon]bool
}

// newEnv locates the repository root from the working directory, which is
// bench/ under `go run -C bench .` and `go test`.
func newEnv() (*env, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for i := 0; i < 3; i++ {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "tecosim", "main.go")); err == nil {
			out := filepath.Join(dir, "bench", "out")
			e := &env{root: dir, out: out, bin: filepath.Join(out, "bin"), live: map[*daemon]bool{}}
			if err := os.MkdirAll(e.bin, 0o755); err != nil {
				return nil, err
			}
			// A directory of this run's own, so concurrent runs and
			// leftovers of a killed one cannot collide.
			if err := os.MkdirAll(filepath.Join(out, "tmp"), 0o755); err != nil {
				return nil, err
			}
			e.tmp, err = os.MkdirTemp(filepath.Join(out, "tmp"), "run-*")
			return e, err
		}
		dir = filepath.Dir(dir)
	}
	return nil, fmt.Errorf("repository root (cmd/tecosim) not found above the working directory")
}

// cleanup kills every daemon still running and removes the run's temporary
// directory. It is safe to call more than once.
func (e *env) cleanup() {
	e.mu.Lock()
	live := e.live
	e.live = map[*daemon]bool{}
	e.mu.Unlock()
	for dm := range live {
		dm.kill()
	}
	_ = os.RemoveAll(e.tmp)
}

// build compiles one of the shipped binaries from source into bench/out/bin.
// The go build cache makes every build after the first a no-op link check.
func (e *env) build(name string) (string, error) {
	bin := filepath.Join(e.bin, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/%s: %v\n%s", name, err, out)
	}
	return bin, nil
}

// usage is what the kernel accounted to a finished child.
type usage struct {
	wall       time.Duration
	cpu        time.Duration // user + system
	peakRSSMiB float64
}

// usageOf reads a finished child's rusage. Its peak RSS is never below the
// benchmark's own at the time the child was started (see peakRSSMiB); for
// tecosim, which peaks near 100 MiB, that floor (about 15 MiB) is far away.
func usageOf(ps *os.ProcessState, wall time.Duration) usage {
	u := usage{wall: wall, cpu: ps.UserTime() + ps.SystemTime()}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		u.peakRSSMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return u
}

// selfUsage is the benchmark process's own CPU time and peak RSS, for the
// in-process workloads.
func selfUsage() (cpu time.Duration, peakRSSMiB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024
}

// runChild runs a one-shot child to completion with TMPDIR inside the
// checkout and returns its stdout and resource usage. A non-zero exit is an
// error carrying stderr.
func (e *env) runChild(ctx context.Context, bin string, args ...string) ([]byte, usage, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Env = append(os.Environ(), "TMPDIR="+e.tmp)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	err := cmd.Run()
	wall := time.Since(t0)
	if err != nil {
		return nil, usage{}, fmt.Errorf("%s %s: %v: %s", filepath.Base(bin), strings.Join(args, " "), err, stderr.String())
	}
	return stdout.Bytes(), usageOf(cmd.ProcessState, wall), nil
}

// daemon is one running tecosimd.
type daemon struct {
	env     *env
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	started time.Time
	log     *bytes.Buffer
	logDone chan struct{}
}

// startDaemon spawns tecosimd on a free port over cacheDir and waits for
// its "listening on" line, which is its readiness signal.
func (e *env) startDaemon(bin, cacheDir string) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-cache-dir", cacheDir)
	cmd.Env = append(os.Environ(), "TMPDIR="+e.tmp)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	var log bytes.Buffer
	cmd.Stderr = &log
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	dm := &daemon{env: e, cmd: cmd, started: t0, log: &log, logDone: make(chan struct{})}
	rd := bufio.NewReader(stdout)
	line, err := rd.ReadString('\n')
	const marker = "listening on "
	i := strings.Index(line, marker)
	if err != nil || i < 0 {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, fmt.Errorf("tecosimd did not report ready: %q %v %s", line, err, log.String())
	}
	addr, _, _ := strings.Cut(line[i+len(marker):], " ")
	dm.base = "http://" + addr
	go func() { // keep draining stdout so the daemon never blocks on it
		defer close(dm.logDone)
		_, _ = io.Copy(io.Discard, rd)
	}()
	e.mu.Lock()
	e.live[dm] = true
	e.mu.Unlock()
	return dm, nil
}

// peakRSSMiB reads a live process's own high-water RSS. A finished child's
// rusage cannot stand in for it: Linux folds the parent's peak RSS at exec
// time into the child's ru_maxrss, so a small daemon would report the
// benchmark's memory instead of its own.
func peakRSSMiB(pid int) (float64, bool) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err == nil
		}
	}
	return 0, false
}

// cpu reads the live daemon's CPU time so far (user + system) from
// /proc/<pid>/stat, whose clock ticks are 10 ms.
func (dm *daemon) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", dm.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The fields after "(comm)" start at field 3; utime and stime are
	// fields 14 and 15.
	_, rest, ok := strings.Cut(string(b), ") ")
	f := strings.Fields(rest)
	if !ok || len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", dm.cmd.Process.Pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", dm.cmd.Process.Pid)
	}
	return time.Duration(utime+stime) * 10 * time.Millisecond, nil
}

// stop sends SIGTERM, waits for the graceful drain and returns the
// daemon's lifetime usage. A drain that fails or hangs is an error.
func (dm *daemon) stop() (usage, error) {
	rss, haveRSS := peakRSSMiB(dm.cmd.Process.Pid)
	if err := dm.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return usage{}, err
	}
	timer := time.AfterFunc(30*time.Second, func() { _ = dm.cmd.Process.Kill() })
	<-dm.logDone
	err := dm.cmd.Wait()
	timer.Stop()
	dm.forget()
	if err != nil {
		return usage{}, fmt.Errorf("tecosimd exit: %v: %s", err, dm.log.String())
	}
	u := usageOf(dm.cmd.ProcessState, time.Since(dm.started))
	if haveRSS {
		u.peakRSSMiB = rss
	}
	return u, nil
}

func (dm *daemon) forget() {
	dm.env.mu.Lock()
	delete(dm.env.live, dm)
	dm.env.mu.Unlock()
}

// kill ends the daemon at once (clean-up paths; the result is not used).
func (dm *daemon) kill() {
	_ = dm.cmd.Process.Kill()
	<-dm.logDone
	_ = dm.cmd.Wait()
	dm.forget()
}

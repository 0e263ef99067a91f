package server

// The chaos harness: proves the sweep service serves only correct,
// golden-equal results across repeated kill/restart cycles while the cache
// layer is being actively damaged — bit flips and truncated tails on
// committed entries, short writes and transient errors on the write path,
// and injected crashes that stop a write dead at an arbitrary byte. The
// contract under test is the one the package doc promises: corruption can
// cost a recompute, never a wrong answer.
//
// Two layers:
//
//   - TestChaosKillRestartCycles runs 60 in-process server lifetimes over
//     one shared cache directory (Kill on odd cycles, Drain on even) and
//     DeepEquals every response against the seed-42 conformance reference.
//   - TestDaemonSIGTERMDrain and TestDaemonChaosSoak drive the real
//     tecosimd binary over TCP; the soak (SIGKILL loop under fault flags)
//     is bounded by SOAK_SECS and skipped when unset, so `make soak` and
//     the CI soak job opt in explicitly.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"teco/internal/checkpoint"
	"teco/internal/conformance"
	"teco/internal/diskcache"
	"teco/internal/experiments"
)

// chaosIDs are engine-only experiments (each generates in tens of
// milliseconds), cheap enough to recompute hundreds of times per run.
var chaosIDs = []string{"table1", "fig12", "volume", "table6", "ablation-dpu"}

// references generates the trusted seed-42 result set once.
func references(t *testing.T) map[string][]*experiments.Table {
	t.Helper()
	want := make(map[string][]*experiments.Table, len(chaosIDs))
	for _, id := range chaosIDs {
		tables, err := conformance.Generate(id)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = tables
	}
	return want
}

// TestChaosKillRestartCycles is the acceptance test: 60 server lifetimes
// over one cache directory with every fault family armed. Every 200
// response — cold, warm, or recomputed-after-corruption — must DeepEqual
// the conformance reference; torn or damaged entries may only ever cost a
// recompute.
func TestChaosKillRestartCycles(t *testing.T) {
	const cycles = 60
	dir := t.TempDir()
	want := references(t)

	faults := checkpoint.NewFaults(1)
	faults.FlipBitEvery = 3
	faults.TruncateEvery = 5
	faults.ShortWriteEvery = 4
	faults.WriteErrEvery = 7

	// Off-golden seeds keep cold computes (and therefore cache commits, the
	// events the corruption plan counts) flowing in every cycle; their
	// references are generated directly and memoized.
	seedWant := make(map[string][]*experiments.Table)
	seedRef := func(id string, seed int64) []*experiments.Table {
		k := fmt.Sprintf("%s/%d", id, seed)
		if tables, ok := seedWant[k]; ok {
			return tables
		}
		tables, err := experiments.ByID(id, experiments.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		seedWant[k] = tables
		return tables
	}

	var total diskcache.Stats
	served := 0
	for cycle := 0; cycle < cycles; cycle++ {
		s, err := New(Config{CacheDir: dir, CacheFaults: faults})
		if err != nil {
			t.Fatalf("cycle %d: restart failed: %v", cycle, err)
		}
		if cycle%5 == 2 {
			// Arm a kill -9 mid-write: the next cache commit dies at byte
			// `cycle` leaving a torn temp file for a later Open to sweep.
			faults.CrashNextWriteAfter(int64(cycle))
		}
		check := func(id string, seed int64, want []*experiments.Table) {
			resp, code := getRun(t, s.Handler(), fmt.Sprintf("id=%s&seed=%d", id, seed))
			if code != http.StatusOK {
				t.Fatalf("cycle %d %s seed %d: HTTP %d", cycle, id, seed, code)
			}
			got, err := DecodeTables(resp.Tables)
			if err != nil {
				t.Fatalf("cycle %d %s seed %d: undecodable response: %v", cycle, id, seed, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cycle %d %s seed %d: served tables differ from the reference (cached=%v)", cycle, id, seed, resp.Cached)
			}
			served++
		}
		for i, id := range chaosIDs {
			// Rotate which ids each cycle asks for so hits, misses and
			// recomputes all occur; all at the golden seed.
			if (cycle+i)%2 == 0 {
				continue
			}
			check(id, 42, want[id])
		}
		// One rotating off-golden request per cycle: seeds repeat every 7
		// cycles, so earlier (possibly since-corrupted) entries are re-read.
		id := chaosIDs[cycle%len(chaosIDs)]
		seed := int64(cycle % 7)
		check(id, seed, seedRef(id, seed))
		st := s.cache.Stats()
		total.Hits += st.Hits
		total.Misses += st.Misses
		total.Puts += st.Puts
		total.CorruptDropped += st.CorruptDropped
		total.Retries += st.Retries
		total.TempSwept += st.TempSwept
		if cycle%2 == 1 {
			s.Kill() // abrupt: no flush, cache dir left as-is
		} else {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			if err := s.Drain(ctx); err != nil {
				t.Fatalf("cycle %d: drain: %v", cycle, err)
			}
			cancel()
		}
	}

	// The run must actually have exercised the fault machinery, or the
	// zero-wrong-answers assertion above proved nothing.
	flips, truncs := faults.Corruptions()
	if flips == 0 || truncs == 0 {
		t.Fatalf("fault plan never fired: %d flips, %d truncations", flips, truncs)
	}
	if faults.Crashes() == 0 {
		t.Fatal("no injected mid-write crash fired")
	}
	if total.CorruptDropped == 0 {
		t.Fatal("no corrupt entry was ever detected and dropped — corruption injection is broken")
	}
	if total.TempSwept == 0 {
		t.Fatal("no torn temp file was ever swept — crash injection is broken")
	}
	if total.Hits == 0 {
		t.Fatal("no warm hit across the whole run — caching is broken")
	}
	t.Logf("%d cycles, %d responses verified: hits=%d puts=%d corrupt-dropped=%d retries=%d temp-swept=%d flips=%d truncs=%d crashes=%d",
		cycles, served, total.Hits, total.Puts, total.CorruptDropped, total.Retries, total.TempSwept, flips, truncs, faults.Crashes())
}

// TestChaosConcurrentClientsUnderFaults hammers one server lifetime with
// concurrent clients while entries are being corrupted, proving the
// coalescing + gate + corruption-recovery composition is race-free (run
// with -race) and still answer-exact.
func TestChaosConcurrentClientsUnderFaults(t *testing.T) {
	want := references(t)
	faults := checkpoint.NewFaults(2)
	faults.FlipBitEvery = 2 // corrupt half of all committed entries
	s := newTestServer(t, func(c *Config) {
		c.CacheFaults = faults
		c.Slots = 4
	})

	const rounds, clients = 8, 6
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				id := chaosIDs[c%len(chaosIDs)]
				w := httptest.NewRecorder()
				s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/run?id="+id+"&seed=42", nil))
				if w.Code != http.StatusOK {
					errs <- fmt.Errorf("%s: HTTP %d", id, w.Code)
					return
				}
				var resp Response
				if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
					errs <- err
					return
				}
				got, err := DecodeTables(resp.Tables)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, want[id]) {
					errs <- fmt.Errorf("%s: wrong tables served (cached=%v)", id, resp.Cached)
				}
			}(c)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	if flips, _ := faults.Corruptions(); flips == 0 {
		t.Fatal("no corruption fired during the concurrent run")
	}
}

// --- process-level harness -------------------------------------------------

var (
	daemonBinOnce sync.Once
	daemonBin     string
	daemonBinErr  error
)

// buildDaemon builds cmd/tecosimd once per test process.
func buildDaemon(t *testing.T) string {
	t.Helper()
	daemonBinOnce.Do(func() {
		dir, err := os.MkdirTemp("", "tecosimd-bin-*")
		if err != nil {
			daemonBinErr = err
			return
		}
		daemonBin = filepath.Join(dir, "tecosimd")
		cmd := exec.Command("go", "build", "-o", daemonBin, "teco/cmd/tecosimd")
		if out, err := cmd.CombinedOutput(); err != nil {
			daemonBinErr = fmt.Errorf("go build tecosimd: %v\n%s", err, out)
		}
	})
	if daemonBinErr != nil {
		t.Fatal(daemonBinErr)
	}
	return daemonBin
}

// startDaemon launches tecosimd on an ephemeral port and returns the base
// URL once the readiness line has been printed, plus the running command.
func startDaemon(t *testing.T, extraArgs ...string) (string, *exec.Cmd, *bufio.Scanner) {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0"}, extraArgs...)
	cmd := exec.Command(buildDaemon(t), args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "listening on "); i >= 0 {
			addr := strings.Fields(line[i+len("listening on "):])[0]
			return "http://" + addr, cmd, sc
		}
	}
	cmd.Process.Kill()
	cmd.Wait()
	t.Fatal("daemon exited before printing its listen address")
	return "", nil, nil
}

// fetchTables GETs /run and decodes the table payload.
func fetchTables(base, id string) ([]*experiments.Table, bool, error) {
	resp, err := http.Get(base + "/run?id=" + id + "&seed=42")
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, false, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, false, fmt.Errorf("%s: HTTP %d: %s", id, resp.StatusCode, body)
	}
	var envelope Response
	if err := json.Unmarshal(body, &envelope); err != nil {
		return nil, false, err
	}
	tables, err := DecodeTables(envelope.Tables)
	return tables, envelope.Cached, err
}

// TestDaemonSIGTERMDrain verifies the graceful-shutdown contract at the
// process level: a SIGTERM arriving while a slow request (fig2, a real
// fine-tuning run, ~seconds) is in flight must not drop that request — it
// completes with the correct tables — and the process then exits 0 after
// printing its drain summary.
func TestDaemonSIGTERMDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level test; skipped in -short mode")
	}
	base, cmd, sc := startDaemon(t, "-cache-dir", t.TempDir())

	type result struct {
		tables []*experiments.Table
		err    error
	}
	slow := make(chan result, 1)
	go func() {
		tables, _, err := fetchTables(base, "fig2")
		slow <- result{tables, err}
	}()
	// Give the request time to reach the generator, then pull the plug.
	time.Sleep(300 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	r := <-slow
	if r.err != nil {
		t.Fatalf("in-flight request dropped by SIGTERM: %v", r.err)
	}
	want, err := conformance.Generate("fig2")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.tables, want) {
		t.Fatal("request served during drain differs from the conformance reference")
	}

	var drained bool
	for sc.Scan() {
		if strings.Contains(sc.Text(), "drained") {
			drained = true
		}
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exited non-zero after SIGTERM: %v", err)
	}
	if !drained {
		t.Fatal("daemon never printed its drain summary")
	}
}

// TestDaemonChaosSoak is the bounded process-level soak (`make soak`): an
// endless SIGKILL/restart loop against the real binary with cache fault
// injection enabled, verifying every response against the conformance
// reference. SOAK_SECS bounds the wall clock; unset skips (the in-process
// chaos tests above run unconditionally).
func TestDaemonChaosSoak(t *testing.T) {
	secsEnv := os.Getenv("SOAK_SECS")
	if secsEnv == "" {
		t.Skip("set SOAK_SECS to run the process-level soak (make soak)")
	}
	secs, err := strconv.Atoi(secsEnv)
	if err != nil || secs <= 0 {
		t.Fatalf("bad SOAK_SECS %q", secsEnv)
	}
	deadline := time.Now().Add(time.Duration(secs) * time.Second)
	want := references(t)
	cacheDir := t.TempDir()

	cycles, responses := 0, 0
	for time.Now().Before(deadline) {
		base, cmd, _ := startDaemon(t,
			"-cache-dir", cacheDir,
			"-fault-seed", strconv.Itoa(cycles+1),
			"-fault-flip-every", "3",
			"-fault-trunc-every", "5",
			"-fault-short-every", "4",
			"-fault-writeerr-every", "7",
		)
		for i, id := range chaosIDs {
			if (cycles+i)%2 == 0 {
				continue
			}
			tables, _, err := fetchTables(base, id)
			if err != nil {
				t.Fatalf("cycle %d: %v", cycles, err)
			}
			if !reflect.DeepEqual(tables, want[id]) {
				t.Fatalf("cycle %d %s: wrong tables served by daemon under fault injection", cycles, id)
			}
			responses++
		}
		// kill -9: no drain, no flush; the next cycle reboots on the same
		// cache directory and must sweep any torn state.
		cmd.Process.Kill()
		cmd.Wait()
		cycles++
	}
	if cycles < 2 {
		t.Fatalf("soak completed only %d cycles; SOAK_SECS too small to prove anything", cycles)
	}
	t.Logf("soak: %d SIGKILL cycles, %d responses verified, zero wrong answers", cycles, responses)
}

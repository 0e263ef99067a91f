package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"teco/internal/experiments"
)

// tecosim runs the command in-process and returns its exit code and output.
func tecosim(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestListAndRun(t *testing.T) {
	code, out, _ := tecosim("-list")
	if code != 0 || out != strings.Join(experiments.IDs(), "\n")+"\n" {
		t.Fatalf("-list: exit %d, output %q", code, out)
	}
	// A knob flag and the inverted scheduling flag in one run.
	code, out, errw := tecosim("-markdown", "-workers", "1", "-coalesce=false", "-seed", "7", "table7")
	if code != 0 || !strings.Contains(out, "### table7") {
		t.Fatalf("table7: exit %d\n%s%s", code, out, errw)
	}
}

// TestBadInputExitsNonZero: an unknown id, an unknown flag, a value the
// knob table rejects and one past every request ceiling all fail with a
// one-line error and no table.
func TestBadInputExitsNonZero(t *testing.T) {
	cases := [][]string{
		{"nope"}, {}, {"-no-such-flag", "table1"}, {"-ber", "2", "faults"},
		{"-retry-budget", "-1", "faults"}, {"-cache-pct", "101", "layers"},
		{"-layer-policy", "mru", "layers-policy"}, {"-kill-port", "5", "fabric-faults"},
	}
	for flagName, ceiling := range map[string]int{
		"layers": 1 << 10, "prefetch": 1 << 6, "replicas": 1 << 10, "host-ports": 1 << 10,
		"kill-port": 1 << 10, "kill-step": 1 << 20, "layer-seq-len": 1 << 20,
		"tier-migrate-budget": 1 << 20, "ckpt-interval": 1 << 20, "crash-at": 1 << 20,
		"retry-budget": 1 << 10,
	} {
		cases = append(cases, []string{"-" + flagName, fmt.Sprint(ceiling + 1), "table1"})
	}
	for _, args := range cases {
		if code, out, errw := tecosim(args...); code == 0 || out != "" || errw == "" {
			t.Errorf("tecosim %v: exit %d, stdout %q, stderr %q", args, code, out, errw)
		}
	}
}

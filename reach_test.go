package teco

import (
	"os/exec"
	"strings"
	"testing"
)

// TestEveryInternalPackageShips: every internal package is reached by a
// shipped root — the tecosim and tecosimd commands, this package, or the
// bench module — so code that nothing ships cannot accumulate beside the
// code that produces the numbers. A package holding only tests is exempt.
func TestEveryInternalPackageShips(t *testing.T) {
	goList := func(args ...string) map[string]bool {
		t.Helper()
		out, err := exec.Command("go", append([]string{"list"}, args...)...).Output()
		if err != nil {
			t.Fatalf("go list %v: %v", args, err)
		}
		set := map[string]bool{}
		for _, p := range strings.Fields(string(out)) {
			set[p] = true
		}
		return set
	}
	shipped := goList("-deps", "./cmd/tecosim", "./cmd/tecosimd", ".")
	for p := range goList("-C", "bench", "-deps", "./...") {
		shipped[p] = true
	}
	testOnly := map[string]bool{"teco/internal/conformance/prop": true}
	for p := range goList("./internal/...") {
		if !shipped[p] && !testOnly[p] {
			t.Errorf("%s is reached by no shipped root (cmd/tecosim, cmd/tecosimd, package teco, bench)", p)
		}
	}
}

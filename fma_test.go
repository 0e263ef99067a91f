package teco

import (
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// fusedOps matches, per architecture, the mnemonics `go tool objdump` prints
// for a fused floating-point multiply-add or multiply-subtract. arm64's
// integer MADD/MSUB do not start with F and so do not match.
var fusedOps = []struct {
	arch string
	op   *regexp.Regexp
}{
	{"arm64", fusedFP},
	{"ppc64le", fusedFP},
	{"riscv64", fusedFP},
	{"s390x", regexp.MustCompile(`^(MAEBR|MADBR|MSEBR|MSDBR|WFM[AS]DB)$`)},
}

// fusedFP is FMADD*, FMSUB*, FNMADD* and FNMSUB*.
var fusedFP = regexp.MustCompile(`^FN?M(ADD|SUB)`)

// TestNoFusedMultiplyAdd is the proof of the no-FMA contract (package
// kernels): the shipped roots of reach_test.go, cross-built for every
// architecture whose Go port fuses a*b+c, contain no fused floating-point
// op in a teco symbol. A product that feeds an addition must be wrapped in
// an explicit float32(…)/float64(…) conversion, the fusion barrier the Go
// spec names. Each failure prints `arch file:line symbol`. The matcher
// first proves itself on testdata/fmaprobe, so a mnemonic the toolchain
// renames cannot pass the gate silently. The "asm" subtest covers the
// repository's assembly, which no disassembly here can read. The four
// architectures are parallel subtests: each one's link and disassembly
// run single-threaded, so two run side by side on two CPUs.
func TestNoFusedMultiplyAdd(t *testing.T) {
	t.Run("asm", noFusedAsm)
	if testing.Short() {
		t.Skip("cross-builds the shipped roots for four architectures")
	}
	pkgs := []string{"./testdata/fmaprobe"}
	for _, r := range shippedRoots {
		if r.dir == "." {
			pkgs = append(pkgs, r.pkg)
		}
	}
	for _, f := range fusedOps {
		t.Run(f.arch, func(t *testing.T) {
			t.Parallel()
			out := filepath.Join(t.TempDir(), f.arch) + string(filepath.Separator)
			build := exec.Command("go", append([]string{"build", "-o", out}, pkgs...)...)
			build.Env = append(os.Environ(), "GOOS=linux", "GOARCH="+f.arch, "CGO_ENABLED=0")
			if msg, err := build.CombinedOutput(); err != nil {
				t.Fatalf("%s: go build: %v\n%s", f.arch, err, msg)
			}
			probe := fusedSites(t, f.arch, f.op, out+"fmaprobe")
			for _, fn := range []string{"main.muladd32(SB)", "main.muladd64(SB)"} {
				if !slices.ContainsFunc(probe, func(site string) bool { return strings.HasSuffix(site, " "+fn) }) {
					t.Errorf("%s: the matcher finds no fused op in %s, a plain a*b+c; update fusedOps", f.arch, fn)
				}
			}
			var sites []string
			for _, pkg := range pkgs[1:] {
				sites = append(sites, fusedSites(t, f.arch, f.op, out+filepath.Base(pkg))...)
			}
			slices.Sort(sites)
			sites = slices.Compact(sites)
			if len(sites) > 0 {
				t.Errorf("%s: %d fused multiply-adds (wrap the product in an explicit conversion):\n%s",
					f.arch, len(sites), strings.Join(sites, "\n"))
			}
		})
	}
}

// fusedAsm matches a fused multiply-add instruction line in Go amd64
// assembly: VFMADD*, VFMSUB*, VFNMADD*, VFNMSUB* (and the ADDSUB/SUBADD
// forms, which start the same).
var fusedAsm = regexp.MustCompile(`^\s*VFN?M(ADD|SUB)`)

// noFusedAsm is the assembly half of the no-FMA gate. `go tool objdump`
// does not decode VEX instructions (it prints garbage for the AVX2
// kernels), so every *.s file in the repository is scanned as text
// instead, and each fused instruction fails with `file:line`. The matcher
// first proves itself on literal lines.
func noFusedAsm(t *testing.T) {
	for _, line := range []string{"\tVFMADD231PS (R10), Y4, Y0", "VFNMSUB213SD X1, X2, X3"} {
		if !fusedAsm.MatchString(line) {
			t.Fatalf("the matcher misses %q", line)
		}
	}
	for _, line := range []string{"\tVMULPS (R10), Y4, Y5 // no VFMADD here", "\tVADDPS Y5, Y0, Y0"} {
		if fusedAsm.MatchString(line) {
			t.Fatalf("the matcher flags %q", line)
		}
	}
	var sites []string
	var files int
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !strings.HasSuffix(path, ".s") {
			if err == nil && d.IsDir() && d.Name() == ".git" {
				return filepath.SkipDir
			}
			return err
		}
		files++
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			if fusedAsm.MatchString(line) {
				sites = append(sites, fmt.Sprintf("%s:%d %s", path, i+1, strings.TrimSpace(line)))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("found no assembly files; the scan is looking in the wrong place")
	}
	if len(sites) > 0 {
		t.Errorf("%d fused multiply-adds in assembly (write a VMUL* and a VADD*):\n%s",
			len(sites), strings.Join(sites, "\n"))
	}
}

// fusedSites disassembles the teco and main symbols of binary and returns
// `arch file:line symbol` for every instruction fused matches.
func fusedSites(t *testing.T, arch string, fused *regexp.Regexp, binary string) []string {
	t.Helper()
	dump, err := exec.Command("go", "tool", "objdump", "-s", `^(teco/|main\.)`, binary).Output()
	if err != nil {
		t.Fatalf("%s: go tool objdump %s: %v", arch, binary, err)
	}
	var sites []string
	var sym string
	for _, line := range strings.Split(string(dump), "\n") {
		if rest, ok := strings.CutPrefix(line, "TEXT "); ok {
			sym, _, _ = strings.Cut(rest, " ")
			continue
		}
		// file:line, address, encoding, instruction, separated by tabs.
		var cols []string
		for _, c := range strings.Split(line, "\t") {
			if c = strings.TrimSpace(c); c != "" {
				cols = append(cols, c)
			}
		}
		if len(cols) < 4 {
			continue
		}
		if op, _, _ := strings.Cut(cols[3], " "); fused.MatchString(op) {
			sites = append(sites, fmt.Sprintf("%s %s %s", arch, cols[0], sym))
		}
	}
	return sites
}

package kernels

// hasAVX2 is the one CPU probe of the repository's vector kernels: the CPU
// has AVX2 and the operating system saves the YMM registers on a context
// switch. It is read once at start-up; nothing else selects the path.
var hasAVX2 = probeAVX2()

func probeAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false
	}
	const xmmYmmState = 1<<1 | 1<<2 // XCR0: SSE and AVX state enabled
	if xgetbv()&xmmYmmState != xmmYmmState {
		return false
	}
	const avx2 = 1 << 5
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (a, b, c, d uint32)

// xgetbv returns the low half of XCR0, the OS-enabled register state.
func xgetbv() (lo uint32)

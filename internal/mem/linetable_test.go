package mem

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestLineTableMatchesMap drives seeded random Set / Get / Update / Reset
// sequences through a LineTable and a map in lockstep. Addresses come from
// a dense run, from sparse addresses one per page, from both sides of page
// edges, and from the ends of the address space (LineAddr 0 and values near
// 2^64). After every operation the live count must equal the map's size
// and the pages held must be exactly the pages with a live line; at the
// end of every sequence every line's value must agree.
func TestLineTableMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			addrs := lineTableAddrs(rng)
			var tab LineTable[int32]
			ref := map[LineAddr]int32{}
			for i := 0; i < 20000; i++ {
				a := addrs[rng.Intn(len(addrs))]
				var op string
				switch k := rng.Intn(100); {
				case k < 45:
					v := int32(rng.Intn(4)) // zero a quarter of the time: a delete
					op = fmt.Sprintf("Set(%d, %d)", a, v)
					tab.Set(a, v)
					if v == 0 {
						delete(ref, a)
					} else {
						ref[a] = v
					}
				case k < 90:
					op = fmt.Sprintf("Get(%d)", a)
					if got, want := tab.Get(a), ref[a]; got != want {
						t.Fatalf("op %d %s = %d, reference %d", i, op, got, want)
					}
				case k < 98:
					// Decrement every value: the ones reaching zero go.
					op = "Update(v-1)"
					tab.Update(func(_ LineAddr, v int32) int32 { return v - 1 })
					for l, v := range ref {
						if v == 1 {
							delete(ref, l)
						} else {
							ref[l] = v - 1
						}
					}
				default:
					op = "Reset()"
					tab.Reset()
					clear(ref)
				}
				if tab.Len() != len(ref) {
					t.Fatalf("op %d %s: Len %d, reference %d", i, op, tab.Len(), len(ref))
				}
				pages := map[uint64]bool{}
				for l := range ref {
					pages[uint64(l)>>pageShift] = true
				}
				if tab.Pages() != len(pages) {
					t.Fatalf("op %d %s: %d pages held for %d lines over %d pages", i, op, tab.Pages(), len(ref), len(pages))
				}
			}
			seen := map[LineAddr]int32{}
			tab.Update(func(l LineAddr, v int32) int32 {
				seen[l] = v
				return v
			})
			if len(seen) != len(ref) {
				t.Fatalf("Update visited %d lines, reference holds %d", len(seen), len(ref))
			}
			for l, v := range ref {
				if seen[l] != v || tab.Get(l) != v {
					t.Fatalf("line %d: Update saw %d, Get %d, reference %d", l, seen[l], tab.Get(l), v)
				}
			}
		})
	}
}

// lineTableAddrs returns the addresses a differential sequence draws from.
func lineTableAddrs(rng *rand.Rand) []LineAddr {
	var addrs []LineAddr
	for a := LineAddr(0); a < 3*pageLines/2; a += 7 {
		addrs = append(addrs, a) // a dense run from line 0 across a page edge
	}
	for p := uint64(0); p < 64; p++ {
		addrs = append(addrs, LineAddr(p<<pageShift|uint64(rng.Intn(pageLines)))) // one per page
	}
	for _, edge := range []uint64{pageLines, 5 * pageLines, 1 << 40} {
		addrs = append(addrs, LineAddr(edge-1), LineAddr(edge))
	}
	for d := uint64(0); d < 4; d++ {
		addrs = append(addrs, LineAddr(math.MaxUint64-d), LineAddr(math.MaxUint64-pageLines-d))
	}
	return addrs
}

// TestLineTableReleasesPages pins the storage bound: a page per 4096-line
// range holding a line, released when the range's last line is deleted,
// and none after Reset.
func TestLineTableReleasesPages(t *testing.T) {
	var tab LineTable[bool]
	if tab.Get(0) || tab.Len() != 0 || tab.Pages() != 0 {
		t.Fatal("zero table is not empty")
	}
	tab.Set(0, false) // deleting an absent line allocates nothing
	if tab.Pages() != 0 {
		t.Fatalf("deleting an absent line left %d pages", tab.Pages())
	}
	for a := LineAddr(0); a < 2*pageLines; a++ {
		tab.Set(a, true)
	}
	tab.Set(math.MaxUint64, true)
	if tab.Len() != 2*pageLines+1 || tab.Pages() != 3 {
		t.Fatalf("%d lines in %d pages, want %d in 3", tab.Len(), tab.Pages(), 2*pageLines+1)
	}
	for a := LineAddr(0); a < pageLines-1; a++ {
		tab.Set(a, false)
	}
	if tab.Pages() != 3 {
		t.Fatalf("a page with one line left was released: %d pages", tab.Pages())
	}
	tab.Set(pageLines-1, false)
	if tab.Pages() != 2 || tab.Get(pageLines-1) {
		t.Fatalf("emptied page kept: %d pages", tab.Pages())
	}
	tab.Update(func(a LineAddr, v bool) bool { return a == math.MaxUint64 })
	if tab.Len() != 1 || tab.Pages() != 1 || !tab.Get(math.MaxUint64) {
		t.Fatalf("Update left %d lines in %d pages", tab.Len(), tab.Pages())
	}
	tab.Reset()
	if tab.Len() != 0 || tab.Pages() != 0 || tab.Get(math.MaxUint64) {
		t.Fatalf("Reset left %d lines in %d pages", tab.Len(), tab.Pages())
	}
}

// TestLineTableStreamAllocs: a walk over consecutive lines allocates one
// page per 4096 lines and nothing per line.
func TestLineTableStreamAllocs(t *testing.T) {
	var tab LineTable[int32]
	n := testing.AllocsPerRun(10, func() {
		for a := LineAddr(0); a < 4*pageLines; a++ {
			tab.Set(a, int32(a&7)+1)
			if tab.Get(a) == 0 {
				t.Fatal("line lost")
			}
		}
		tab.Reset()
	})
	if n > 4 {
		t.Fatalf("a 4-page walk allocates %v times, want <= 4", n)
	}
}

// Command fmaprobe is fma_test.go's proof of its own matcher: each function
// below is a plain a*b+c that every architecture the test checks compiles to
// a fused multiply-add. It is built, never run.
package main

import (
	"fmt"
	"os"
)

func main() {
	fmt.Println(muladd32(float32(len(os.Args)), 2, 3), muladd64(float64(len(os.Args)), 2, 3))
}

//go:noinline
func muladd32(a, b, c float32) float32 { return a*b + c }

//go:noinline
func muladd64(a, b, c float64) float64 { return a*b + c }

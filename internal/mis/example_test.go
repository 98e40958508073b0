package mis_test

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/mis"
)

func ExampleRun() {
	// Algorithm 7 on a small path; the output is always a valid maximal
	// independent set (Theorem 14).
	g := gen.Path(9)
	out, err := mis.Run(g, mis.Params{}, 1)
	if err != nil {
		panic(err)
	}
	fmt.Println(out.Completed, mis.Verify(g, out.MIS) == nil)
	// Output: true true
}

func ExampleVerify() {
	g := gen.Path(5)
	fmt.Println(mis.Verify(g, []int{0, 2, 4}) == nil)
	fmt.Println(mis.Verify(g, []int{0, 1}) == nil) // not independent
	// Output:
	// true
	// false
}

// Command app is the reach fixture's only root.
package main

import (
	"fmt"

	"reach/internal/lib"
)

func main() {
	var s lib.Shape = lib.NewSquare(2)
	_ = s.Area()
	fmt.Println(lib.Celsius(21), lib.Labeled{})
	var n lib.Namer = lib.Labeled{}
	_ = n.Name()
	_ = lib.Counter{}.Get()
	_ = lib.Map([]int{1, 2}, func(x int) int { return 2 * x })
	_ = lib.Box[int]{}.Get()
	_ = lib.Lookup("init")
}

// Package lib exercises the reach analyzer: what cmd/app's main, an init or
// a var initializer reaches is silent, every other top-level symbol is
// flagged, and so is a method of a reached type that nothing calls, directly
// or through an interface the program can call it through.
package lib

import "fmt"

// Shape is the only way main calls Area.
type Shape interface{ Area() float64 }

type square struct{ side float64 }

// Area is called only through Shape, a module interface square implements,
// so it and its callee are reached.
func (s square) Area() float64 { return scaled(s.side * s.side) }

// Perimeter is a method of a reached type that nothing calls.
func (s square) Perimeter() float64 { return 4 * s.side } // want `method square.Perimeter is reached from no main`

// Celsius reaches String only as a fmt.Stringer, through fmt.Println.
type Celsius float64

func (c Celsius) String() string { return fmt.Sprintf("%g°C", float64(c)) }

// Namer is the interface main calls Name through.
type Namer interface {
	Name() string
	Kind() string
}

// tag alone does not implement Namer.
type tag struct{}

// Name is promoted into Labeled, and main calls it through Namer.
func (tag) Name() string { return "tag" }

// Labeled embeds tag and implements Namer.
type Labeled struct{ tag }

func (Labeled) Kind() string { return "labeled" }

// Counter has one called method and one that only a test calls.
type Counter struct{ n int }

// Get is called by main.
func (c Counter) Get() int { return c.n }

// Reset is called only from a _test.go file, which the Loader never reads.
func (c *Counter) Reset() { c.n = 0 } // want `method Counter.Reset is reached from no main`

func scaled(x float64) float64 { return x }

// NewSquare returns a Shape.
func NewSquare(side float64) Shape { return square{side} }

// Map is generic: main reaches it through an inferred instantiation.
func Map[T any](xs []T, f func(T) T) []T {
	out := make([]T, 0, len(xs))
	for _, x := range xs {
		out = append(out, f(x))
	}
	return mapped(out)
}

func mapped[T any](xs []T) []T { return xs }

// Box is a generic type main instantiates.
type Box[T any] struct{ v T }

// Get is reached through Box[int].
func (b Box[T]) Get() T { return unboxed(b.v) }

func unboxed[T any](v T) T { return v }

var registry = map[string]int{}

func init() { initOnly() }

// initOnly runs only from init.
func initOnly() { registry["init"] = 1 }

var _ = register("var")

// register runs only from a package-level var initializer.
func register(name string) int {
	registry[name] = 2
	return 0
}

// Lookup is called by main.
func Lookup(key string) int { return registry[key] }

func Dead() {} // want `func Dead is reached from no main, init or var initializer`

func dead() {} // want `func dead is reached from no main`

type Unused struct{} // want `type Unused is reached`

// Unused's method is not reported on its own: the type is.
func (Unused) Method() { dead() }

const Limit = 3 // want `const Limit is reached`

var counter int // want `var counter is reached`

//edgeslice:reach test reference: TestLibReference compares against it
func Reference() int { return 1 }

//edgeslice:reach
func NoReason() {} // want `//edgeslice:reach suppression requires a non-empty reason`

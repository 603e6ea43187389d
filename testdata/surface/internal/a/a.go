// Package a holds one case for each rule of the export guard in
// surface_test.go. TestExportGuardRules lists the members it must report.
package a

import "fmt"

// Unused is a package-level name nothing reads.
var Unused = 1

// Counter's Add is called directly; Reset only by a test.
type Counter struct{ n int }

func (c *Counter) Add()   { c.n++ }
func (c *Counter) Reset() { c.n = 0 }

// Shape is a method-set interface: Area is called through it, Perimeter is
// not called at all.
type Shape interface {
	Area() float64
	Perimeter() float64
}

// Square satisfies Shape.
type Square struct{ side float64 }

func NewSquare(side float64) Square { return Square{side} }

func (s Square) Area() float64      { return s.side * s.side }
func (s Square) Perimeter() float64 { return 4 * s.side }

// sizer constrains P to "pointer to T" with a Size method, the shape of a
// generic engine over its store.
type sizer[T any] interface {
	*T
	Size() int
}

// Total calls Size through the constraint of its type parameter P.
func Total[T any, P sizer[T]](xs []T) int {
	n := 0
	for i := range xs {
		n += P(&xs[i]).Size()
	}
	return n
}

// Box's Size is read only as the type argument of Total.
type Box struct{ n int }

func (b *Box) Size() int { return b.n }

// Color's String is read only by fmt, as a fmt.Stringer.
type Color int

func (c Color) String() string { return fmt.Sprintf("color %d", int(c)) }

// Config has a field that is only assigned and incremented (Ratio), one set
// only by a composite literal (Spare) and one that only encoding/json reads
// (Name). It is an option struct too: the command sets Ratio, Spare and
// Limits, only this package sets Name, and only a test sets Limits.Burst.
type Config struct {
	Name   string `json:"name"`
	Ratio  float64
	Spare  int
	Limits Limits
}

// Limits is an option struct because Config holds it by value.
type Limits struct{ Max, Burst int }

func (l Limits) Sum() int { return l.Max + l.Burst }

func NewConfig() *Config {
	c := &Config{Name: "demo", Spare: 1}
	c.Ratio = 2
	c.Ratio++
	return c
}

// Base's ID is read through Item, which embeds Base: the promoted selection
// reads the embedded field Item.Base too.
type Base struct{ ID int }

type Item struct{ Base }

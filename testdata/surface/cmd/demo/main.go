// Command demo is the non-test reader of package a, and the setter of its
// options.
package main

import (
	"encoding/json"
	"flag"
	"fmt"

	"example.com/surface/internal/a"
)

func main() {
	var c a.Counter
	c.Add()
	var s a.Shape = a.NewSquare(2)
	fmt.Println(s.Area(), a.Total([]a.Box{{}}), a.Color(3))
	cfg := a.NewConfig()
	cfg.Ratio = 3
	flag.IntVar(&cfg.Limits.Max, "max", 1, "a flag sets Limits.Max, and so Limits")
	b, _ := json.Marshal(cfg)
	fmt.Println(string(b), a.Item{}.ID, a.Config{Spare: 2}, cfg.Limits.Sum())
}

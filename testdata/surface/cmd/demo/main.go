// Command demo is the non-test reader of package a.
package main

import (
	"encoding/json"
	"fmt"

	"example.com/surface/internal/a"
)

func main() {
	var c a.Counter
	c.Add()
	var s a.Shape = a.NewSquare(2)
	fmt.Println(s.Area(), a.Total([]a.Box{{}}), a.Color(3))
	b, _ := json.Marshal(a.NewConfig())
	fmt.Println(string(b), a.Item{}.ID)
}

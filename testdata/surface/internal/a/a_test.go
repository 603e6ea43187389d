package a

import "testing"

// TestReset is a test reader of Counter.Reset, which the guard ignores.
func TestReset(t *testing.T) {
	var c Counter
	c.Add()
	c.Reset()
	if c.n != 0 {
		t.Fatal("Reset left a count")
	}
}

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

// TestLimits is the only setter of Limits.Burst, which the guard ignores.
func TestLimits(t *testing.T) {
	l := Limits{Max: 1}
	l.Burst = 2
	if l.Sum() != 3 {
		t.Fatal("Sum does not add the limits")
	}
}

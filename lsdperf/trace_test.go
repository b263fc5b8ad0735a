package main

import (
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// core.self_ms is System.Match's duration minus what the replayed child
// spans cover; overlapping children count once.
func TestSelfTime(t *testing.T) {
	children := []span{
		{Name: "core.collect", Start: ms(10), End: ms(30)},
		{Name: "learner.NameMatcher", Start: ms(20), End: ms(50)},
		{Name: "constraint.astar", Start: ms(60), End: ms(90)},
	}
	if got, want := selfTime(ms(100), children), ms(100-40-30); got != want {
		t.Errorf("selfTime = %v, want %v", got, want)
	}
	if got := selfTime(ms(7), nil); got != ms(7) {
		t.Errorf("selfTime without children = %v, want the whole duration", got)
	}
}

func TestCovered(t *testing.T) {
	cases := []struct {
		spans []span
		want  time.Duration
	}{
		{nil, 0},
		{[]span{{Start: ms(5), End: ms(7)}}, ms(2)},
		{[]span{{Start: ms(0), End: ms(10)}, {Start: ms(10), End: ms(15)}}, ms(15)},
		{[]span{{Start: ms(20), End: ms(30)}, {Start: ms(0), End: ms(5)}, {Start: ms(2), End: ms(8)}}, ms(18)},
		{[]span{{Start: ms(0), End: ms(50)}, {Start: ms(10), End: ms(20)}}, ms(50)},
	}
	for i, c := range cases {
		if got := covered(c.spans); got != c.want {
			t.Errorf("case %d: covered = %v, want %v", i, got, c.want)
		}
	}
}

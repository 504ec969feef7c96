//go:build !linux

package syslog

import (
	"context"
	"time"
)

// tailWatch is unavailable off Linux: newTailWatch returns nil and the
// follower sleeps between growth checks.
type tailWatch struct{}

func newTailWatch(context.Context, string) *tailWatch { return nil }

func (*tailWatch) rewatch() bool                   { return false }
func (*tailWatch) wait(time.Duration) (wake, bool) { return 0, false }
func (*tailWatch) close()                          {}

package fsim

import (
	"fmt"
	"strings"
)

// DiskQueueMode selects how concurrent sessions' disk requests are
// timed against the simulated device.
type DiskQueueMode int

const (
	// DiskQueuePrivate gives every session its own disk-timing view: lanes
	// never queue behind each other and the max-over-lanes merge is the
	// only coupling. This is the original model and the default; its
	// timing is bit-identical to the pre-shared-queue trees.
	DiskQueuePrivate DiskQueueMode = iota
	// DiskQueueShared routes every session's requests through one
	// sharedq.Queue over a common array: lanes contend for the head, the
	// scheduling policy (Config.Cache.WritebackPolicy) orders the queue,
	// and queueing delay appears in foreground latencies.
	DiskQueueShared
)

// String names the mode as the config files spell it.
func (m DiskQueueMode) String() string {
	switch m {
	case DiskQueuePrivate:
		return "private"
	case DiskQueueShared:
		return "shared"
	default:
		return fmt.Sprintf("disk-queue(%d)", int(m))
	}
}

// Valid reports whether m is a known mode.
func (m DiskQueueMode) Valid() bool {
	return m == DiskQueuePrivate || m == DiskQueueShared
}

// ParseDiskQueue maps a case-insensitive mode name to its DiskQueueMode,
// for flags and config files. The empty string is the default (private).
func ParseDiskQueue(s string) (DiskQueueMode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "private":
		return DiskQueuePrivate, nil
	case "shared":
		return DiskQueueShared, nil
	default:
		return DiskQueuePrivate, fmt.Errorf("fsim: unknown disk-queue mode %q (want private or shared)", s)
	}
}

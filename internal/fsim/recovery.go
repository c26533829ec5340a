// Device-fault injection and the session recovery policy.
//
// Two fault layers compose here. Config.Faults is a simdisk.FaultPlan:
// scheduled device faults (slowdowns, latent sectors, whole-device
// failure) applied to every disk view the store builds, which surface
// as degraded-mode timing inside the array — the RAID layer absorbs
// them. Config.Inject is op-level injection: a deterministic seeded
// roll per session operation that models the residue redundancy cannot
// hide (transport errors, controller resets), which sessions recover
// from with bounded retries and simulated-time exponential backoff
// (Config.Retry). Both layers are pure functions of configuration and
// virtual time, so faulted replays are bit-identical run to run.
package fsim

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// OpKind names a session operation class for fault targeting.
type OpKind int

// Operation classes. Close is deliberately absent: resources must stay
// releasable, so close never injects.
const (
	OpOpen OpKind = iota
	OpCreate
	OpRemove
	OpStat
	OpRead
	OpWrite
	OpSeek
	numOpKinds
)

// String names the kind.
func (k OpKind) String() string {
	switch k {
	case OpOpen:
		return "open"
	case OpCreate:
		return "create"
	case OpRemove:
		return "remove"
	case OpStat:
		return "stat"
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpSeek:
		return "seek"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// OpMask selects operation classes. The zero mask selects every class,
// so a spec that only sets a rate targets all operations.
type OpMask uint32

// Has reports whether the mask selects k.
func (m OpMask) Has(k OpKind) bool { return m == 0 || m&(1<<uint(k)) != 0 }

// MaskOf builds a mask selecting exactly the given kinds.
func MaskOf(kinds ...OpKind) OpMask {
	var m OpMask
	for _, k := range kinds {
		m |= 1 << uint(k)
	}
	return m
}

// ParseOpMask parses "read|write|open"-style lists. Empty means all.
func ParseOpMask(s string) (OpMask, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "all" {
		return 0, nil
	}
	var m OpMask
	for _, name := range strings.Split(s, "|") {
		found := false
		for k := OpKind(0); k < numOpKinds; k++ {
			if k.String() == strings.TrimSpace(name) {
				m |= 1 << uint(k)
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("fsim: unknown op kind %q", name)
		}
	}
	return m, nil
}

// InjectSpec schedules deterministic op-level fault injection: each
// targeted session operation rolls a seeded xorshift64 hash keyed on
// (seed, session, op index, attempt) and faults on a 1-in-Rate hit.
// The schedule is stateless — a pure function of the key — so replays
// are bit-identical whatever the goroutine interleaving.
type InjectSpec struct {
	// Seed keys the hash; distinct seeds draw distinct schedules.
	Seed uint64
	// Rate is the mean 1-in-N fault incidence per targeted op; 0 disables
	// injection entirely, 1 faults every roll.
	Rate uint64
	// Permanent makes 1-in-N of injected faults permanent (unretryable);
	// 0 means every injected fault is transient.
	Permanent uint64
	// Budget caps how many faults inject per session (0 = unlimited).
	// A finite budget makes hand-computed recovery timings possible.
	Budget int64
	// Ops targets operation classes; the zero mask targets all.
	Ops OpMask
}

// Enabled reports whether the spec injects anything.
func (s InjectSpec) Enabled() bool { return s.Rate > 0 }

// Validate reports the first problem with the spec, or nil.
func (s InjectSpec) Validate() error {
	if s.Budget < 0 {
		return fmt.Errorf("fsim: inject budget %d must be non-negative", s.Budget)
	}
	return nil
}

// roll decides whether the (session, op, attempt) key faults, and if so
// whether permanently. The hash follows the repository's xorshift64
// convention (the reservoir-sampling streams use the same steps).
func (s InjectSpec) roll(session int64, op uint64, attempt int) (fire, permanent bool) {
	if s.Rate == 0 {
		return false, false
	}
	x := faultMix(s.Seed, uint64(session), op, uint64(attempt))
	if x%s.Rate != 0 {
		return false, false
	}
	if s.Permanent == 0 {
		return true, false
	}
	y := faultMix(s.Seed^0xD6E8FEB86659FD93, uint64(session), op, uint64(attempt))
	return true, y%s.Permanent == 0
}

// faultMix hashes the roll key with odd-constant multiplies and the
// xorshift64 triple-shift; the +1 keeps the all-zero key away from the
// xorshift fixed point.
func faultMix(seed, session, op, attempt uint64) uint64 {
	x := seed*0x9E3779B97F4A7C15 + session*0xBF58476D1CE4E5B9 + op*0x94D049BB133111EB + attempt + 1
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// RetryPolicy bounds a session's recovery from transient injected
// faults: up to Max retries, the k'th preceded by a simulated-time
// backoff of Base<<(k-1). The zero policy never retries — the first
// transient fault propagates.
type RetryPolicy struct {
	Max  int
	Base time.Duration
}

// Validate reports the first problem with the policy, or nil.
func (p RetryPolicy) Validate() error {
	if p.Max < 0 {
		return fmt.Errorf("fsim: retry max %d must be non-negative", p.Max)
	}
	if p.Base < 0 {
		return fmt.Errorf("fsim: retry base %v must be non-negative", p.Base)
	}
	if p.Max > 62 {
		return fmt.Errorf("fsim: retry max %d overflows the backoff shift", p.Max)
	}
	return nil
}

// RecoveryStats counts a session's (or store's) fault-recovery
// activity: faults injected, retries spent, operations that recovered
// after at least one fault, and operations that failed for good.
type RecoveryStats struct {
	Injected  int64
	Retried   int64
	Recovered int64
	Failed    int64
}

// Add accumulates other into s.
func (s *RecoveryStats) Add(other RecoveryStats) {
	s.Injected += other.Injected
	s.Retried += other.Retried
	s.Recovered += other.Recovered
	s.Failed += other.Failed
}

// Sub returns the counter deltas s - other, the windowed view over a
// cumulative tally (e.g. one replay's share of a store's running total).
func (s RecoveryStats) Sub(other RecoveryStats) RecoveryStats {
	return RecoveryStats{
		Injected:  s.Injected - other.Injected,
		Retried:   s.Retried - other.Retried,
		Recovered: s.Recovered - other.Recovered,
		Failed:    s.Failed - other.Failed,
	}
}

// Any reports whether anything was injected.
func (s RecoveryStats) Any() bool { return s.Injected != 0 }

// ErrInjected is the sentinel every injected fault unwraps to, so
// errors.Is(err, ErrInjected) tells injection from genuine store errors.
var ErrInjected = errors.New("fsim: injected fault")

// FaultError is the typed unrecoverable error a session op returns when
// injection defeats the retry policy: either the fault was permanent or
// the retries ran out. It unwraps to ErrInjected.
type FaultError struct {
	Op OpKind
	// Permanent distinguishes an unretryable fault from retry exhaustion.
	Permanent bool
}

// Error implements error.
func (e *FaultError) Error() string {
	if e.Permanent {
		return fmt.Sprintf("fsim: permanent injected fault on %s", e.Op)
	}
	return fmt.Sprintf("fsim: injected fault on %s: retries exhausted", e.Op)
}

// Unwrap ties the typed error to the ErrInjected sentinel.
func (e *FaultError) Unwrap() error { return ErrInjected }

// recCounters is the session-side recovery tally. Fields are atomic so
// aggregate snapshots (RecoveryStats during a live run) never race the
// owning goroutine's updates.
type recCounters struct {
	injected, retried, recovered, failed atomic.Int64
}

func (c *recCounters) snapshot() RecoveryStats {
	return RecoveryStats{
		Injected:  c.injected.Load(),
		Retried:   c.retried.Load(),
		Recovered: c.recovered.Load(),
		Failed:    c.failed.Load(),
	}
}

// opStart runs the injection gate for one session operation. It returns
// the (possibly backoff-delayed) virtual start time for the operation
// body, or a *FaultError when injection defeats the retry policy —
// either way the failed attempts' backoff is already billed: the lane's
// clock sits at the returned time. With injection disabled it is a
// single branch returning now unchanged, preserving byte-identity.
func (sess *Session) opStart(now time.Time, op OpKind) (time.Time, error) {
	if !sess.injectable {
		return now, nil
	}
	pen, err := sess.injectGate(op)
	if pen > 0 {
		now = now.Add(pen)
		sess.clk.Set(now)
	}
	return now, err
}

// injectGate rolls the fault schedule for the session's next operation
// and walks the retry loop on a hit: each transient fault consumes one
// retry and bills an exponential backoff; a permanent fault or retry
// exhaustion fails the operation. The per-session budget bounds how
// many faults can fire, which both keeps long replays mostly healthy
// and makes recovery timings hand-computable in tests.
func (sess *Session) injectGate(op OpKind) (time.Duration, error) {
	spec := &sess.store.cfg.Inject
	if !spec.Ops.Has(op) {
		return 0, nil
	}
	n := sess.opSeq
	sess.opSeq++
	retry := sess.store.cfg.Retry
	var pen time.Duration
	faulted := false
	for attempt := 0; ; attempt++ {
		if sess.budget == 0 {
			break // budget spent: the schedule is exhausted for this session
		}
		fire, perm := spec.roll(sess.id, n, attempt)
		if !fire {
			break
		}
		faulted = true
		sess.rec.injected.Add(1)
		if sess.budget > 0 {
			sess.budget--
		}
		if perm || attempt >= retry.Max {
			sess.rec.failed.Add(1)
			return pen, &FaultError{Op: op, Permanent: perm}
		}
		sess.rec.retried.Add(1)
		pen += retry.Base << uint(attempt)
	}
	if faulted {
		sess.rec.recovered.Add(1)
	}
	return pen, nil
}

// Recovery snapshots this session's fault-recovery counters.
func (sess *Session) Recovery() RecoveryStats { return sess.rec.snapshot() }

// RecoveryStats sums fault-recovery counters across every live session
// and the retired totals of released ones.
func (s *FileStore) RecoveryStats() RecoveryStats {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	total := s.retiredRec
	for _, sess := range s.sessions {
		total.Add(sess.rec.snapshot())
	}
	return total
}

// ParseInjectSpec parses "seed=7,rate=40,budget=4,perm=100,ops=read|write".
// Unset keys keep their zero values; an empty string is the zero spec.
func ParseInjectSpec(s string) (InjectSpec, error) {
	var spec InjectSpec
	s = strings.TrimSpace(s)
	if s == "" {
		return spec, nil
	}
	for _, kv := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return spec, fmt.Errorf("fsim: inject spec %q: want key=value", kv)
		}
		var err error
		switch key {
		case "seed":
			spec.Seed, err = strconv.ParseUint(val, 10, 64)
		case "rate":
			spec.Rate, err = strconv.ParseUint(val, 10, 64)
		case "perm":
			spec.Permanent, err = strconv.ParseUint(val, 10, 64)
		case "budget":
			spec.Budget, err = strconv.ParseInt(val, 10, 64)
		case "ops":
			spec.Ops, err = ParseOpMask(val)
		default:
			return spec, fmt.Errorf("fsim: inject spec: unknown key %q", key)
		}
		if err != nil {
			return spec, fmt.Errorf("fsim: inject spec %q: %w", kv, err)
		}
	}
	return spec, spec.Validate()
}

// ParseRetrySpec parses "max=3,base=50us". Empty is the zero policy.
func ParseRetrySpec(s string) (RetryPolicy, error) {
	var p RetryPolicy
	s = strings.TrimSpace(s)
	if s == "" {
		return p, nil
	}
	for _, kv := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return p, fmt.Errorf("fsim: retry spec %q: want key=value", kv)
		}
		var err error
		switch key {
		case "max":
			p.Max, err = strconv.Atoi(val)
		case "base":
			p.Base, err = time.ParseDuration(val)
		default:
			return p, fmt.Errorf("fsim: retry spec: unknown key %q", key)
		}
		if err != nil {
			return p, fmt.Errorf("fsim: retry spec %q: %w", kv, err)
		}
	}
	return p, p.Validate()
}

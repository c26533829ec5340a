package webserver

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// ShedPolicy is the web tier's graceful-degradation policy (§4's server
// under overload): admission control caps how many requests may be in
// the file-I/O path at once, and a per-request deadline bounds how much
// simulated I/O time a request may consume before the server gives up
// on it. Both default to off — the zero policy is the paper's
// unconditionally admitting server.
type ShedPolicy struct {
	// MaxInFlight caps concurrently admitted requests across all
	// connections; a request arriving beyond the cap is shed immediately
	// with a 503 and no file I/O. 0 means unlimited.
	MaxInFlight int
	// Deadline bounds one request's simulated file-I/O time. A request
	// whose I/O exceeds it still bills the work on the store's clock (the
	// deadline models the client's patience, not a cancellation of the
	// device) but answers 503 instead of carrying the payload. 0 means
	// none.
	Deadline time.Duration
}

// Enabled reports whether any shedding is configured.
func (p ShedPolicy) Enabled() bool { return p.MaxInFlight > 0 || p.Deadline > 0 }

// Validate rejects negative limits.
func (p ShedPolicy) Validate() error {
	if p.MaxInFlight < 0 {
		return fmt.Errorf("webserver: negative MaxInFlight %d", p.MaxInFlight)
	}
	if p.Deadline < 0 {
		return fmt.Errorf("webserver: negative Deadline %v", p.Deadline)
	}
	return nil
}

// ParseShedPolicy parses the -shed flag grammar: comma-separated
// key=value pairs "max=8,deadline=2ms". Empty input is the zero policy.
func ParseShedPolicy(s string) (ShedPolicy, error) {
	var p ShedPolicy
	if s = strings.TrimSpace(s); s == "" {
		return p, nil
	}
	for _, kv := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return p, fmt.Errorf("webserver: shed spec %q: want key=value", kv)
		}
		switch key {
		case "max":
			n, err := strconv.Atoi(val)
			if err != nil {
				return p, fmt.Errorf("webserver: shed max %q: %v", val, err)
			}
			p.MaxInFlight = n
		case "deadline":
			d, err := time.ParseDuration(val)
			if err != nil {
				return p, fmt.Errorf("webserver: shed deadline %q: %v", val, err)
			}
			p.Deadline = d
		default:
			return p, fmt.Errorf("webserver: unknown shed key %q", key)
		}
	}
	return p, p.Validate()
}

// String renders the policy in the flag grammar.
func (p ShedPolicy) String() string {
	parts := make([]string, 0, 2)
	if p.MaxInFlight > 0 {
		parts = append(parts, fmt.Sprintf("max=%d", p.MaxInFlight))
	}
	if p.Deadline > 0 {
		parts = append(parts, fmt.Sprintf("deadline=%s", p.Deadline))
	}
	return strings.Join(parts, ",")
}

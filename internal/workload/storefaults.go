package workload

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// StoreFaults injects failures into the durable session store's write
// path, the way RuntimeFaults injects them into the analysis engine. The
// store calls the hook methods at its syscall boundaries; a matching rule
// fires once (or, with count "*", every time) and simulates the disk
// failing underneath the daemon:
//
//	torn        the write persists only a prefix of the frame and then
//	            "crashes" (returns an error) — the on-disk state is
//	            exactly what a power cut mid-append leaves behind
//	enospc      the write fails before any byte lands (no space)
//	syncerr     fsync fails after the write (data may or may not be
//	            durable — the store must treat the operation as failed)
//	crashrename the temp file is fully written and synced but the rename
//	            never happens — a crash between temp and rename
//
// Operations the rules select on: "append" (log frame append), "write"
// (compaction's atomic replace of the log file), or "*" for both.
//
// The struct is safe for concurrent use; the store may be called from
// many request goroutines.
type StoreFaults struct {
	mu    sync.Mutex
	rules []storeFaultRule
}

type storeFaultRule struct {
	kind   string // torn | enospc | syncerr | crashrename
	op     string // append | write | *
	at     int    // fire on the at-th matching call (1-based); 0 = every call
	seen   int
	fired  bool
	always bool
}

// InjectedFault marks a simulated storage failure: the store must treat
// the operation as failed, and a chaos test then reopens the directory
// as if the process had died at that instant.
type InjectedFault struct {
	Kind string
	Op   string
}

func (e *InjectedFault) Error() string {
	return fmt.Sprintf("workload: injected %s fault on store %s", e.Kind, e.Op)
}

// ParseStoreFaults parses a comma-separated spec of kind:op[:n] rules,
// e.g. "torn:append:2,crashrename:write,enospc:*". Kinds are torn,
// enospc, syncerr, crashrename; ops are append, write, or *; n selects
// the n-th matching operation (default 1), and n "*" fires every time.
// An empty spec returns nil (no faults).
func ParseStoreFaults(spec string) (*StoreFaults, error) {
	var rules []storeFaultRule
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		parts := strings.Split(item, ":")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("workload: bad store fault %q (want kind:op[:n], e.g. torn:append:2)", item)
		}
		r := storeFaultRule{kind: parts[0], op: parts[1], at: 1}
		switch r.kind {
		case "torn", "enospc", "syncerr", "crashrename":
		default:
			return nil, fmt.Errorf("workload: unknown store fault kind %q (want torn|enospc|syncerr|crashrename)", r.kind)
		}
		switch r.op {
		case "append", "write", "*":
		default:
			return nil, fmt.Errorf("workload: unknown store fault op %q (want append|write|*)", r.op)
		}
		if len(parts) == 3 {
			if parts[2] == "*" {
				r.always, r.at = true, 0
			} else {
				n, err := strconv.Atoi(parts[2])
				if err != nil || n < 1 {
					return nil, fmt.Errorf("workload: bad store fault count %q (want a positive integer or *)", parts[2])
				}
				r.at = n
			}
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, nil
	}
	return &StoreFaults{rules: rules}, nil
}

// match finds the first armed rule of one of the given kinds for op and
// consumes it.
func (f *StoreFaults) match(op string, kinds ...string) string {
	if f == nil {
		return ""
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := range f.rules {
		r := &f.rules[i]
		if r.op != "*" && r.op != op {
			continue
		}
		ok := false
		for _, k := range kinds {
			if r.kind == k {
				ok = true
				break
			}
		}
		if !ok {
			continue
		}
		r.seen++
		if r.always {
			return r.kind
		}
		if !r.fired && r.seen == r.at {
			r.fired = true
			return r.kind
		}
	}
	return ""
}

// BeforeWrite fires before the bytes of an append or atomic write land.
// It returns how many bytes to actually write (len(data) normally, a
// strict prefix for a torn write) and an error for faults that fail the
// operation. A torn write returns both: the prefix lands AND the
// operation errors, reproducing a crash mid-write.
func (f *StoreFaults) BeforeWrite(op string, size int) (int, error) {
	switch f.match(op, "torn", "enospc") {
	case "torn":
		return size / 2, &InjectedFault{Kind: "torn", Op: op}
	case "enospc":
		return 0, &InjectedFault{Kind: "enospc", Op: op}
	}
	return size, nil
}

// BeforeSync fires before fsync of a journal or freshly written file.
func (f *StoreFaults) BeforeSync(op string) error {
	if f.match(op, "syncerr") != "" {
		return &InjectedFault{Kind: "syncerr", Op: op}
	}
	return nil
}

// BeforeRename fires between an atomic write's temp file landing and its
// rename into place; an error leaves the temp file stranded exactly as a
// crash would.
func (f *StoreFaults) BeforeRename(op string) error {
	if f.match(op, "crashrename") != "" {
		return &InjectedFault{Kind: "crashrename", Op: op}
	}
	return nil
}

// Package faultsim is the deterministic fault-injection subsystem the
// robustness work rides on (DESIGN.md §6, and the argument of Skjellum &
// Schafer that C/R libraries themselves must survive faults, not merely
// enable recovery from them).
//
// An Injector holds a seeded plan of named injection points. Production
// code fires points at well-defined seams — vfs reads/writes, netsim
// link transfers, RML delivery, FILEM copies, orted liveness — and the
// injector decides, reproducibly, whether that operation fails. Every
// decision comes from one seeded PRNG plus per-rule operation counters,
// so a given plan string replays the exact same fault schedule on every
// run: tests pin a seed and assert hard outcomes.
//
// Plans are written as MCA parameter values, e.g.
//
//	--mca fault_plan "seed=42;filem.transfer=p0.25;node.kill:node1=after3,once"
//
// Rule points match qualified fire points by prefix: a rule on
// "filem.transfer" matches "filem.transfer:node1>#stable", while a rule
// on "node.kill:node1" matches only that node. Path-qualified points
// extend the same way across "/" boundaries: "fs.bitrot:node2:ckpt"
// arms every file under node2's ckpt tree.
//
// Storage fault classes (see WrapFS): "fs.bitrot:<label>:<path>" flips
// one seeded byte of a file at read time and persists the damage;
// "node.storage-loss:<label>" wipes a store in place so its old tree
// returns ErrNotExist while new writes succeed.
package faultsim

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"repro/internal/trace"
)

// ErrInjected is the sentinel wrapped by every injected failure, so
// callers (and tests) can tell a synthetic fault from a real one.
var ErrInjected = errors.New("faultsim: injected fault")

// ErrOutage marks a storage failure of the transient-outage class
// ("fs.outage:<label>"): the store is temporarily unreachable, not
// damaged. The drain engine treats these differently from ordinary
// write failures — instead of aborting the interval it parks the work,
// enters degraded mode, and retries when the store returns.
var ErrOutage = errors.New("faultsim: store outage")

// IsOutage reports whether err belongs to the transient-outage class.
func IsOutage(err error) bool { return errors.Is(err, ErrOutage) }

// Rule arms one injection point. Triggers combine:
//
//   - Prob > 0: each matching operation fails with that probability.
//   - After > 0: the first After matching operations always pass; the
//     next one fails deterministically (then Prob, if set, governs any
//     further failures — with Prob unset the rule keeps firing).
//   - Times > 0: the rule fires at most Times times, then disarms.
//     With neither Prob nor After set, the rule fires on the first
//     Times matching operations — the natural shape for rules armed
//     mid-run via AddRule ("the next matching operation fails").
type Rule struct {
	Point string  // injection point, possibly qualified ("vfs.write:stable")
	Prob  float64 // per-operation failure probability
	After int     // operations to let pass before the first forced failure
	Times int     // maximum number of failures; 0 = unlimited
}

func (r Rule) String() string {
	var trig []string
	if r.Prob > 0 {
		trig = append(trig, fmt.Sprintf("p%g", r.Prob))
	}
	if r.After > 0 {
		trig = append(trig, fmt.Sprintf("after%d", r.After))
	}
	if r.Times > 0 {
		trig = append(trig, fmt.Sprintf("times%d", r.Times))
	}
	if len(trig) == 0 {
		trig = append(trig, "p0")
	}
	return r.Point + "=" + strings.Join(trig, ",")
}

// matchesPrefix reports whether point equals prefix or extends it at a
// qualifier boundary: ":" separates qualifiers ("vfs.write:stable"),
// ">" separates transfer endpoints ("filem.transfer:n0>#stable"), and
// "/" separates path components, so a rule on "fs.bitrot:n0:dir" arms
// every file under dir.
func matchesPrefix(point, prefix string) bool {
	return point == prefix || strings.HasPrefix(point, prefix+":") ||
		strings.HasPrefix(point, prefix+">") || strings.HasPrefix(point, prefix+"/")
}

// matches reports whether the rule arms the (possibly qualified) fire
// point: exact match, or the rule point is an unqualified prefix.
func (r Rule) matches(point string) bool {
	return matchesPrefix(point, r.Point)
}

type ruleState struct {
	Rule
	ops   int // matching operations observed
	fired int // failures injected
}

// Injector evaluates a fault plan. The zero value and a nil *Injector
// are inert: Fire always returns nil, so wiring code need not
// special-case "no faults configured".
type Injector struct {
	mu    sync.Mutex
	seed  int64
	rng   *rand.Rand
	rules []*ruleState
	ins   *trace.Instrumentation
}

// New builds an injector from a seed and explicit rules.
func New(seed int64, rules ...Rule) *Injector {
	in := &Injector{seed: seed, rng: rand.New(rand.NewSource(seed))}
	for _, r := range rules {
		in.rules = append(in.rules, &ruleState{Rule: r})
	}
	return in
}

// Parse builds an injector from a plan string: semicolon-separated
// entries, each either "seed=N" or "point=trigger[,trigger...]" with
// triggers pFLOAT, afterN, timesN and once (= times1). A rule that could
// never fire — empty point, no trigger, NaN probability — is rejected.
func Parse(spec string) (*Injector, error) {
	var seed int64 = 1
	var rules []Rule
	for _, item := range strings.Split(spec, ";") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		key, val, ok := strings.Cut(item, "=")
		if !ok {
			return nil, fmt.Errorf("faultsim: plan entry %q: want point=triggers", item)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		if key == "seed" {
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultsim: bad seed %q: %v", val, err)
			}
			seed = n
			continue
		}
		if key == "" {
			return nil, fmt.Errorf("faultsim: plan entry %q: empty point", item)
		}
		r := Rule{Point: key}
		for _, trig := range strings.Split(val, ",") {
			trig = strings.TrimSpace(trig)
			switch {
			case trig == "once":
				r.Times = 1
			case strings.HasPrefix(trig, "p"):
				f, err := strconv.ParseFloat(trig[1:], 64)
				if err != nil || !(f >= 0 && f <= 1) { // NaN fails both
					return nil, fmt.Errorf("faultsim: rule %q: bad probability %q", key, trig)
				}
				r.Prob = f
			case strings.HasPrefix(trig, "after"):
				n, err := strconv.Atoi(trig[len("after"):])
				if err != nil || n < 0 {
					return nil, fmt.Errorf("faultsim: rule %q: bad trigger %q", key, trig)
				}
				r.After = n
			case strings.HasPrefix(trig, "times"):
				n, err := strconv.Atoi(trig[len("times"):])
				if err != nil || n < 1 {
					return nil, fmt.Errorf("faultsim: rule %q: bad trigger %q", key, trig)
				}
				r.Times = n
			default:
				return nil, fmt.Errorf("faultsim: rule %q: unknown trigger %q", key, trig)
			}
		}
		if r.Prob == 0 && r.After == 0 && r.Times == 0 {
			return nil, fmt.Errorf("faultsim: rule %q has no trigger", key)
		}
		rules = append(rules, r)
	}
	return New(seed, rules...), nil
}

// AddRule arms an additional rule on a live injector. Tests use it to
// schedule faults relative to observed progress ("after the first
// commit, the next stable-storage operation loses the store") — a
// relation plan strings cannot express, since their counters start at
// cluster boot.
func (in *Injector) AddRule(r Rule) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.rules = append(in.rules, &ruleState{Rule: r})
	in.mu.Unlock()
}

// SetInstr routes faultsim.injected trace events and the injected-fault
// counter to ins.
func (in *Injector) SetInstr(ins *trace.Instrumentation) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.ins = ins
	in.mu.Unlock()
}

// Seed returns the plan's PRNG seed.
func (in *Injector) Seed() int64 {
	if in == nil {
		return 0
	}
	return in.seed
}

// Fire evaluates one operation at the named point. It returns a non-nil
// error (wrapping ErrInjected) when the plan says this operation fails.
// Safe on a nil receiver.
func (in *Injector) Fire(point string) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, rs := range in.rules {
		if !rs.matches(point) {
			continue
		}
		rs.ops++
		if rs.Times > 0 && rs.fired >= rs.Times {
			continue
		}
		fire := false
		switch {
		case rs.After > 0 && rs.ops <= rs.After:
			// still inside the warmup window
		case rs.After > 0 && rs.fired == 0:
			fire = true // the forced first failure
		case rs.Prob > 0:
			fire = in.rng.Float64() < rs.Prob
		case rs.After > 0:
			fire = true // afterN with no probability keeps firing
		case rs.Times > 0:
			fire = true // timesN alone: fail the first N matching operations
		}
		if fire {
			rs.fired++
			in.ins.Counter("ompi_faultsim_injected_total").Inc()
			in.ins.Emit("faultsim", "faultsim.injected", "%s (rule %s, op %d, fire %d)",
				point, rs.Point, rs.ops, rs.fired)
			return fmt.Errorf("%w: %s", ErrInjected, point)
		}
	}
	return nil
}

// Fired returns how many failures have been injected at rules whose
// point equals or is prefixed by pointPrefix. Tests use it to assert a
// plan actually exercised the path under test.
func (in *Injector) Fired(pointPrefix string) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	n := 0
	for _, rs := range in.rules {
		if matchesPrefix(rs.Point, pointPrefix) {
			n += rs.fired
		}
	}
	return n
}

// Ops returns how many operations have been observed by rules matching
// pointPrefix (same matching as Fired).
func (in *Injector) Ops(pointPrefix string) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	n := 0
	for _, rs := range in.rules {
		if matchesPrefix(rs.Point, pointPrefix) {
			n += rs.ops
		}
	}
	return n
}

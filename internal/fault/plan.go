// Package fault provides composable, deterministic fault-injection
// plans for the self-stabilization experiments: a Plan is a seeded
// schedule of Events (transient state corruption, leader corruption,
// leader reboot, agent crash, churn, interaction omission) fired at
// fixed step counts or whenever the runner detects convergence, and an
// Injector executes the plan against a live configuration while
// journaling every fired event.
//
// The paper's self-stabilizing protocols (Propositions 12, 13, 16) are
// sold on exactly one operational property: bounded recovery from
// arbitrary transient faults. A single pre-run corruption exercises
// only one recovery; a Plan turns the property into a continuously
// stressable behavior — converge, corrupt, re-converge, for as many
// epochs as the schedule demands, on the engine's compiled fast path
// (sim.Runner consults the injector between interactions and rebuilds
// its incremental census after every mutating event).
//
// Plans have a text syntax, shared by namesim -faults, job specs and
// grid fault axes:
//
//	@5000:corrupt=3,@conv:crash=1,@conv:reboot+corrupt=2,@12000:omit=500
//
// Each event is "@trigger:kind=arg"; the trigger is either an absolute
// interaction count or "conv" (fire at the next detected convergence);
// the kinds are corrupt, leader, reboot, crash, churn and omit. "+"
// joins kinds under one trigger into a group that fires in order at
// once — "@conv:reboot+corrupt=2" reboots the leader and corrupts two
// agents at one convergence, one fault epoch. An optional leading
// "seed=N" token folds extra entropy into the injector's RNG. Parse and
// Plan.String round-trip (FuzzPlanParse pins this).
package fault

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind enumerates the fault types an Event can inject.
type Kind uint8

const (
	// Corrupt overwrites the states of Arg distinct randomly chosen
	// mobile agents with arbitrary states drawn by the protocol's
	// RandomMobile (a transient memory fault).
	Corrupt Kind = iota
	// Leader replaces the leader state with an arbitrary one drawn by
	// RandomLeader (Arg is ignored and canonicalized to 1).
	Leader
	// Crash permanently stops Arg randomly chosen live agents: their
	// states freeze and every interaction involving them is suppressed
	// until a Churn event replaces them.
	Crash
	// Churn resets Arg randomly chosen agents to the protocol's initial
	// mobile state (InitMobile when declared, state 0 otherwise),
	// reviving them if crashed — the population-protocol reading of a
	// node being replaced by a factory-fresh one.
	Churn
	// Omit suppresses the next Arg scheduled interactions: they consume
	// scheduler draws and count as (null) steps but no transition is
	// applied — a burst of message loss.
	Omit
	// Reboot resets the leader to its initialized state (InitLeader):
	// a protected node restarting factory-fresh, which puts a protocol
	// whose leader must be initialized back inside its regime after a
	// fault (Arg is ignored and canonicalized to 1).
	Reboot
)

var kindNames = [...]string{"corrupt", "leader", "crash", "churn", "omit", "reboot"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

func parseKind(s string) (Kind, bool) {
	for i, name := range kindNames {
		if s == name {
			return Kind(i), true
		}
	}
	return 0, false
}

// ConvStep is the Event.Step value marking a convergence-triggered
// event: it fires when the runner detects a silent configuration, not
// at a fixed interaction count.
const ConvStep int64 = -1

// maxStep bounds step triggers so plan arithmetic cannot overflow.
const maxStep = int64(1) << 50

// Event is one scheduled fault.
type Event struct {
	// Step is the interaction count at which the event fires, or
	// ConvStep for convergence-triggered events. Step-triggered events
	// fire before the (Step+1)-th interaction executes.
	Step int64
	// Kind selects the fault type.
	Kind Kind
	// Arg is the fault magnitude: agents to corrupt/crash/churn, or
	// interactions to omit. Always >= 1; corrupt/crash/churn clamp to
	// the population size when fired.
	Arg int
	// Join marks an event joined to its predecessor by "+": it shares
	// the predecessor's trigger and fires right after it, so a conv
	// group fires whole at one detected convergence.
	Join bool
}

// String renders the event in plan syntax, e.g. "@5000:corrupt=3".
func (e Event) String() string {
	if e.Step == ConvStep {
		return fmt.Sprintf("@conv:%s=%d", e.Kind, e.Arg)
	}
	return fmt.Sprintf("@%d:%s=%d", e.Step, e.Kind, e.Arg)
}

// Plan is a deterministic schedule of fault events plus an optional
// seed folded into the injector's RNG (so one plan string fully
// determines the faults, including victim choices and random states,
// given the run seed).
type Plan struct {
	Seed   int64
	Events []Event
}

// Empty reports whether the plan schedules no events.
func (p *Plan) Empty() bool { return p == nil || len(p.Events) == 0 }

// Conv returns the number of convergence-triggered groups — the number
// of fault epochs the plan injects.
func (p *Plan) Conv() int {
	if p == nil {
		return 0
	}
	n := 0
	for _, e := range p.Events {
		if e.Step == ConvStep && !e.Join {
			n++
		}
	}
	return n
}

// String renders the plan in its canonical text form: the seed token
// first (only when non-zero), then the events in schedule order,
// comma-separated, a joined event as "+kind=arg" after its group.
// Parse(p.String()) reproduces p exactly.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	var b strings.Builder
	if p.Seed != 0 {
		fmt.Fprintf(&b, "seed=%d", p.Seed)
	}
	for i, e := range p.Events {
		if e.Join && i > 0 {
			fmt.Fprintf(&b, "+%s=%d", e.Kind, e.Arg)
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(e.String())
	}
	return b.String()
}

// ParseError is the structured rejection of one fault-plan token, so
// callers (the ppserved admission path, the CLIs' -faults flags) can
// surface exactly what was wrong and where without re-parsing the
// message text.
type ParseError struct {
	// Kind classifies the defect: "seed" (malformed or duplicate seed
	// token), "event" (token is not "@trigger:kind[=arg]" shaped),
	// "trigger" (bad step count), "kind" (unknown fault kind) or "arg"
	// (argument out of range).
	Kind string
	// Offset is the byte offset of the offending token in the input.
	Offset int
	// Token is the offending token verbatim.
	Token string
	// Reason is the human-readable detail.
	Reason string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("fault: bad %s at offset %d: token %q: %s", e.Kind, e.Offset, e.Token, e.Reason)
}

// planToken is one separator-delimited token with its byte offset.
type planToken struct {
	text string
	off  int
}

func isPlanSep(b byte) bool {
	return b == ',' || b == ';' || b == ' ' || b == '\t' || b == '\n'
}

// splitPlan tokenizes a plan string, keeping byte offsets so parse
// errors can point at the offending token.
func splitPlan(s string) []planToken {
	var out []planToken
	start := -1
	for i := 0; i <= len(s); i++ {
		if i == len(s) || isPlanSep(s[i]) {
			if start >= 0 {
				out = append(out, planToken{text: s[start:i], off: start})
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	return out
}

// Parse parses the fault-plan text syntax. Events are separated by
// commas, semicolons or whitespace; each is "@trigger:kind" with an
// optional "=arg" (default 1), and further "+kind[=arg]" parts join
// the group; "seed=N" may appear once. The empty string parses to an
// empty plan. Errors are always of type *ParseError, locating the
// rejected token.
func Parse(s string) (*Plan, error) {
	p := &Plan{}
	seenSeed := false
	for _, tok := range splitPlan(s) {
		if v, ok := strings.CutPrefix(tok.text, "seed="); ok {
			if seenSeed {
				return nil, &ParseError{Kind: "seed", Offset: tok.off, Token: tok.text, Reason: "duplicate seed token"}
			}
			seed, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, &ParseError{Kind: "seed", Offset: tok.off, Token: tok.text, Reason: "want a 64-bit integer"}
			}
			p.Seed = seed
			seenSeed = true
			continue
		}
		if perr := p.parseGroup(tok); perr != nil {
			return nil, perr
		}
	}
	return p, nil
}

// parseGroup appends the events of one "@trigger:kind[=arg]" token,
// with its "+"-joined kinds, to p.
func (p *Plan) parseGroup(tok planToken) *ParseError {
	body, ok := strings.CutPrefix(tok.text, "@")
	if !ok {
		return &ParseError{Kind: "event", Offset: tok.off, Token: tok.text, Reason: "does not start with '@'"}
	}
	trigger, rest, ok := strings.Cut(body, ":")
	if !ok {
		return &ParseError{Kind: "event", Offset: tok.off, Token: tok.text, Reason: "lacks a ':kind' part"}
	}
	step := ConvStep
	if trigger != "conv" {
		var err error
		step, err = strconv.ParseInt(trigger, 10, 64)
		if err != nil || step < 0 || step > maxStep {
			return &ParseError{Kind: "trigger", Offset: tok.off, Token: tok.text, Reason: `want a step count in [0,2^50] or "conv"`}
		}
	}
	for join := false; ; join = true {
		part, more, joined := strings.Cut(rest, "+")
		ev := Event{Step: step, Arg: 1, Join: join}
		kindStr, argStr, hasArg := strings.Cut(part, "=")
		kind, ok := parseKind(kindStr)
		if !ok {
			return &ParseError{Kind: "kind", Offset: tok.off, Token: tok.text,
				Reason: fmt.Sprintf("unknown kind %q (want corrupt|leader|reboot|crash|churn|omit)", kindStr)}
		}
		ev.Kind = kind
		if hasArg {
			arg, err := strconv.Atoi(argStr)
			if err != nil || arg < 1 || arg > 1<<30 {
				return &ParseError{Kind: "arg", Offset: tok.off, Token: tok.text, Reason: "want an integer in [1,2^30]"}
			}
			ev.Arg = arg
		}
		if kind == Leader || kind == Reboot {
			// The leader is a single agent; canonicalize so String
			// round-trips regardless of the written argument.
			ev.Arg = 1
		}
		p.Events = append(p.Events, ev)
		if !joined {
			return nil
		}
		rest = more
	}
}

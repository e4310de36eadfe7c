package relstore

import "fmt"

// Change capture: every table carries a monotonic version and a bounded
// log of row-level deltas so that incremental view maintenance can ask
// "what changed since version v?" instead of re-reading the relation.
// Operations that cannot be expressed as inserts and deletes (sorting,
// wholesale replacement) reset the log; readers that fall off the
// retained window get ChangeSet.Truncated and must fall back to a full
// refresh.

// ChangeOp is the kind of a row-level delta.
type ChangeOp uint8

const (
	// ChangeInsert records a row appended to the table.
	ChangeInsert ChangeOp = iota
	// ChangeDelete records a row removed from the table.
	ChangeDelete
)

// String returns "insert" or "delete".
func (op ChangeOp) String() string {
	if op == ChangeInsert {
		return "insert"
	}
	return "delete"
}

// Change is one row-level delta. Ver is the table version the change
// produced; a multi-row delete logs all its rows under a single version.
type Change struct {
	Ver uint64
	Op  ChangeOp
	Row Tuple
}

// TruncateCause explains why a ChangeSet could not cover its window.
// Consumers route on it: a rolled log means the caller simply fell
// behind and should resync, a restart means the caller's watermark is
// from an incarnation this table never reached — with durable storage
// that now only happens for sources that run without it.
type TruncateCause uint8

const (
	// TruncateNone: the window was covered; the set is not truncated.
	TruncateNone TruncateCause = iota
	// TruncateRolled: the bounded log evicted deltas the window needs.
	TruncateRolled
	// TruncateReset: the log was reset wholesale — the table was
	// replaced under its name, or delta logging was disabled.
	TruncateReset
	// TruncateRestart: the caller's watermark is ahead of the table's
	// current version, i.e. from a previous incarnation that had
	// advanced further than this one (a cold restart).
	TruncateRestart
)

// String names the cause for metrics and errors.
func (c TruncateCause) String() string {
	switch c {
	case TruncateNone:
		return "none"
	case TruncateRolled:
		return "rolled"
	case TruncateReset:
		return "reset"
	case TruncateRestart:
		return "restart"
	default:
		return "unknown"
	}
}

// ChangeSet is the answer to "what happened to this table after version
// Since?". When Truncated is true the log no longer covers the window
// (Cause says why) and Changes must be ignored in favour of a full
// refresh. Otherwise replaying Changes over the state at Since yields
// the state at Now.
type ChangeSet struct {
	Table     string
	Since     uint64
	Now       uint64
	Truncated bool
	Cause     TruncateCause
	Changes   []Change
}

// ErrLogTruncated is the typed error for a truncated delta window: the
// caller wanted deltas since Want but the table can only answer from
// its current state at Have. Cause distinguishes "the log rolled" from
// "the source restarted" so consumers can metric and handle each
// separately.
type ErrLogTruncated struct {
	Table string
	Want  uint64 // the caller's stale watermark (ChangeSet.Since)
	Have  uint64 // the table's current version (ChangeSet.Now)
	Cause TruncateCause
}

// Error implements error.
func (e *ErrLogTruncated) Error() string {
	return fmt.Sprintf("relstore: change log of %q truncated (%s): want deltas since %d, have state at %d",
		e.Table, e.Cause, e.Want, e.Have)
}

// TruncationError returns a typed *ErrLogTruncated when the set is
// truncated, nil otherwise.
func (cs ChangeSet) TruncationError() error {
	if !cs.Truncated {
		return nil
	}
	return &ErrLogTruncated{Table: cs.Table, Want: cs.Since, Have: cs.Now, Cause: cs.Cause}
}

// DefaultChangeLogLimit bounds how many row deltas a table retains when
// no explicit limit is configured.
const DefaultChangeLogLimit = 1024

// changeLog is the bounded per-table delta log. All fields are guarded
// by the owning table's mutex.
type changeLog struct {
	limit    int // 0 = DefaultChangeLogLimit, negative = logging disabled
	disabled bool
	// minVer is the version floor: the log covers (minVer, table.version].
	// Requests for older windows are truncated.
	minVer uint64
	// cause records why the floor last moved, reported on truncation.
	cause   TruncateCause
	entries []Change
}

func (l *changeLog) capLimit() int {
	if l.limit > 0 {
		return l.limit
	}
	return DefaultChangeLogLimit
}

// appendLocked records one delta, evicting from the front when the
// bound is exceeded. Eviction moves the floor to the evicted version, so
// partially retained multi-row versions are reported truncated rather
// than half-replayed.
func (l *changeLog) appendLocked(ch Change) {
	if l.disabled {
		l.minVer = ch.Ver
		l.cause = TruncateReset
		return
	}
	l.entries = append(l.entries, ch)
	for len(l.entries) > l.capLimit() {
		l.minVer = l.entries[0].Ver
		l.cause = TruncateRolled
		l.entries = l.entries[1:]
	}
}

// resetLocked drops the log and moves the floor to now: every window
// starting before now becomes truncated with the given cause.
func (l *changeLog) resetLocked(now uint64, cause TruncateCause) {
	l.minVer = now
	l.cause = cause
	l.entries = nil
}

// sinceLocked collects the deltas after since, or reports truncation.
func (l *changeLog) sinceLocked(table string, since, now uint64) ChangeSet {
	cs := ChangeSet{Table: table, Since: since, Now: now}
	if since > now {
		cs.Truncated = true
		cs.Cause = TruncateRestart
		return cs
	}
	if since < l.minVer {
		cs.Truncated = true
		cs.Cause = l.cause
		if cs.Cause == TruncateNone {
			cs.Cause = TruncateRolled
		}
		return cs
	}
	for _, ch := range l.entries {
		if ch.Ver > since {
			cs.Changes = append(cs.Changes, ch)
		}
	}
	return cs
}

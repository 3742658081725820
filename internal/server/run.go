package server

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sync"
	"time"

	"repro/internal/grid"
	"repro/internal/telemetry"
)

// JobState is the lifecycle of a job. Transitions:
// queued → running → {done, failed, canceled}; queued → canceled.
type JobState string

const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobResult is the JSON summary of a finished job.
type JobResult struct {
	Iterations int     `json:"iterations"`
	ILTSeconds float64 `json:"ilt_sec"`
	FinalLoss  float64 `json:"final_loss"`
	// MaskSHA256 fingerprints the final mask bit-for-bit (dimensions plus
	// the IEEE-754 bits of every pixel), so clients — and the soak test —
	// can assert determinism without downloading the mask.
	MaskSHA256 string `json:"mask_sha256"`
	// Contest metrics, present only when the job requested them.
	L2    *float64 `json:"l2_nm2,omitempty"`
	PVB   *float64 `json:"pvb_nm2,omitempty"`
	EPE   *int     `json:"epe,omitempty"`
	Shots *int     `json:"shots,omitempty"`
}

// fingerprintChunk is how many bytes maskFingerprint hands the hash per
// Write: one Write per pixel nearly doubled the time a 512-px mask's hash
// takes.
const fingerprintChunk = 64 << 10

// maskFingerprint hashes a mask's exact bit pattern: its width and height,
// then every value's float64 bits, all little-endian, written in chunks.
func maskFingerprint(m *grid.Mat) string {
	h := sha256.New()
	buf := make([]byte, 16, fingerprintChunk)
	binary.LittleEndian.PutUint64(buf[0:8], uint64(m.W))
	binary.LittleEndian.PutUint64(buf[8:16], uint64(m.H))
	for _, v := range m.Data {
		if len(buf) == cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// Job is one accepted optimization. The mutable fields are guarded by mu;
// the event log has its own lock so SSE readers never contend with state
// transitions.
type Job struct {
	ID       string
	Name     string
	Priority Priority
	pixelNM  float64 // the target's pixel pitch, for the mask download

	ctx    context.Context
	cancel context.CancelFunc
	rec    *telemetry.Recorder
	events eventLog
	// countCancel counts a queued job's cancellation in the server's
	// counters. Cancel runs it under mu before the canceled state or Done
	// is visible, so a client that sees the job canceled finds it counted.
	countCancel func()

	mu    sync.Mutex
	state JobState
	// spec is the resolved request, the n×n target and the layout text
	// included, until the job is terminal: every terminal transition drops
	// it, so a finished job keeps only its answer.
	spec     *JobSpec
	errMsg   string
	result   *JobResult
	mask     *grid.Mat
	created  time.Time
	started  time.Time
	finished time.Time

	done chan struct{}
}

// State returns the current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Cancel requests cancellation. Queued jobs transition immediately (the
// executor will skip them) and are counted here; running jobs transition,
// and are counted, when the executor observes the context, which happens
// within one iteration. Terminal jobs are unaffected. Reports whether this
// call itself terminated a queued job.
func (j *Job) Cancel() bool {
	j.mu.Lock()
	direct := j.state == StateQueued
	if direct {
		j.countCancel()
		j.state = StateCanceled
		j.spec = nil
		j.finished = time.Now()
	}
	j.mu.Unlock()
	j.cancel()
	if direct {
		j.closeEvents()
	}
	return direct
}

// Done exposes the completion channel (closed on any terminal state).
func (j *Job) Done() <-chan struct{} { return j.done }

// startedAt returns when the executor picked the job up (zero if it never
// ran).
func (j *Job) startedAt() time.Time {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.started
}

// markRunning moves queued → running and returns the job's spec; nil if
// the job was canceled while waiting in the queue.
func (j *Job) markRunning() *JobSpec {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return nil
	}
	j.state = StateRunning
	j.started = time.Now()
	return j.spec
}

// finish records the terminal state and wakes waiters exactly once.
func (j *Job) finish(state JobState, errMsg string, res *JobResult, mask *grid.Mat) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.spec = nil
	j.errMsg = errMsg
	j.result = res
	j.mask = mask
	j.finished = time.Now()
	j.mu.Unlock()
	j.closeEvents()
}

// closeEvents marks the event stream complete and closes done. Idempotent
// via the event log's own latch.
func (j *Job) closeEvents() {
	if j.events.markDone() {
		close(j.done)
	}
}

// statusJSON is the wire form of GET /jobs/{id}.
type statusJSON struct {
	ID         string     `json:"id"`
	Name       string     `json:"name"`
	State      JobState   `json:"state"`
	Priority   string     `json:"priority"`
	Error      string     `json:"error,omitempty"`
	Result     *JobResult `json:"result,omitempty"`
	CreatedSec float64    `json:"age_sec"`
	Events     int        `json:"events"`
}

func (j *Job) status() statusJSON {
	j.mu.Lock()
	defer j.mu.Unlock()
	return statusJSON{
		ID:         j.ID,
		Name:       j.Name,
		State:      j.state,
		Priority:   j.Priority.String(),
		Error:      j.errMsg,
		Result:     j.result,
		CreatedSec: time.Since(j.created).Seconds(),
		Events:     j.events.len(),
	}
}

// eventLog buffers a job's telemetry events as pre-marshaled JSON lines
// (the telemetry.MarshalEvent encoding, which tracestat.Read accepts) and
// lets any number of SSE readers replay-then-follow. Emit is invoked under
// the recorder's event lock; readers take only the log's own lock.
type eventLog struct {
	mu      sync.Mutex
	lines   [][]byte
	names   []string
	done    bool
	changed chan struct{} // closed and replaced on every append / markDone
}

func (l *eventLog) init() {
	l.changed = make(chan struct{})
}

// Emit implements telemetry.Sink.
func (l *eventLog) Emit(e telemetry.Event) {
	b := telemetry.MarshalEvent(e)
	l.mu.Lock()
	l.lines = append(l.lines, b)
	l.names = append(l.names, e.Name)
	l.signalLocked()
	l.mu.Unlock()
}

// Flush implements telemetry.Sink.
func (l *eventLog) Flush() error { return nil }

func (l *eventLog) signalLocked() {
	close(l.changed)
	l.changed = make(chan struct{})
}

// markDone seals the log; returns true on the first call.
func (l *eventLog) markDone() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.done {
		return false
	}
	l.done = true
	l.signalLocked()
	return true
}

func (l *eventLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.lines)
}

// wait returns the lines and names from index `from` on, whether the log
// is sealed, and a channel that is closed on the next change (for
// followers to select on alongside their client's context).
func (l *eventLog) wait(from int) (lines [][]byte, names []string, done bool, changed <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from < len(l.lines) {
		lines = l.lines[from:]
		names = l.names[from:]
	}
	return lines, names, l.done, l.changed
}

package runner

import "context"

// Retry is what remains of the retired in-process retry policy: nothing. It
// is kept only so benchmark/ compiles unchanged; ROADMAP 6(c) deletes it.
type Retry struct{}

// Provenance is what remains of the retired per-cell retry history:
// nothing. It is kept only so benchmark/ compiles unchanged; ROADMAP 6(c)
// deletes it.
type Provenance struct{}

// Supervise runs fn once with panic capture and returns a nil *Provenance;
// the seed, policy and classifier are ignored. It is kept only so
// benchmark/ compiles unchanged; ROADMAP 6(c) deletes it.
func Supervise[T any](ctx context.Context, _ int64, _ Retry, _ any, fn Job[T]) (T, *Provenance, error) {
	res := runOne(ctx, fn)
	return res.Value, nil, res.Err
}

package core

import (
	"context"
	"fmt"
	"math"
	"sync"

	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
	"github.com/wsdetect/waldo/internal/telemetry"
)

// UploadBatch is a set of readings a WSD submits after a local detection,
// together with the noise level the detector achieved. The Global Model
// Updater only accepts batches whose confidence-interval span meets the
// acceptance criterion α′ (§3.4).
type UploadBatch struct {
	// Readings are the location-tagged measurements used for the local
	// decision.
	Readings []dataset.Reading
	// CISpanDB is the detector's final 90 % CI span for the batch.
	CISpanDB float64
}

// Validate reports why an upload arriving from outside the trust boundary
// cannot be stored, whatever format carried it: no readings or more than
// one frame holds, a CI span that is not a finite non-negative number, or
// a reading with a bad channel, sensor or location, a non-finite signal
// feature, or an antenna height that is negative or not finite. It is
// the malformed-input check (a 400 at the HTTP edge); the α′ noise
// criterion and the single-store rule are SubmitCtx's.
func (b UploadBatch) Validate() error {
	if len(b.Readings) == 0 {
		return fmt.Errorf("core: empty upload")
	}
	if len(b.Readings) > MaxBatchReadings {
		return fmt.Errorf("core: upload of %d readings exceeds limit %d", len(b.Readings), MaxBatchReadings)
	}
	if !finite(b.CISpanDB) || b.CISpanDB < 0 {
		return fmt.Errorf("core: upload CI span %v dB is not a finite non-negative number", b.CISpanDB)
	}
	for i := range b.Readings {
		r := &b.Readings[i]
		if err := checkPlacement(r); err != nil {
			return fmt.Errorf("reading %d: %w", i, err)
		}
		if sig := r.Signal; !finite(sig.RSSdBm) || !finite(sig.CFTdB) || !finite(sig.AFTdB) {
			return fmt.Errorf("reading %d: core: non-finite signal %+v", i, sig)
		}
		if !finite(r.AltM) || r.AltM < 0 {
			return fmt.Errorf("reading %d: core: antenna height %v m is not a finite non-negative number", i, r.AltM)
		}
	}
	return nil
}

// finite reports whether x is neither NaN nor ±Inf.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Updater is the Global Model Updater for one channel/sensor model: it
// accumulates trusted readings (bootstrap war-driving plus accepted WSD
// uploads), relabels with Algorithm 1, and retrains the model. It is safe
// for concurrent use.
//
// Retrain is non-blocking with respect to the rest of the API: it
// snapshots the store under the lock, relabels and trains with the lock
// released, and swaps the model pointer in at the end, so Submit, Model,
// and Readings never stall behind a rebuild. Concurrent Retrain callers
// coalesce onto the single in-flight rebuild (a single-flight latch) and
// share its result; the collisions are counted in telemetry.
type Updater struct {
	mu sync.Mutex

	cfg      ConstructorConfig
	labelCfg dataset.LabelConfig
	// alphaPrime is the maximum accepted upload CI span (dB).
	alphaPrime float64
	// expectCh/expectKind, when non-zero, pin the store's scope so a
	// mismatched batch is rejected even while the store is empty.
	expectCh   rfenv.Channel
	expectKind sensor.Kind

	// readings is the trusted store: append-only and chunked, so an
	// accepted reading is never copied again, whatever the store's size.
	readings ReadingLog
	model    *Model
	version  int
	// trainedCount is the number of store readings the current model was
	// trained on (the snapshot length of the Retrain that produced it).
	trainedCount int
	// journal, when set, receives every store mutation under mu (see
	// Journal).
	journal Journal
	// inflight is the single-flight latch: non-nil while a rebuild is
	// running outside the lock.
	inflight *retrainCall

	// Telemetry handles (nil-safe no-ops when UpdaterConfig.Metrics is
	// unset): upload accept/reject counts, rebuild cost, store size.
	metrics         *telemetry.Registry
	scope           string
	acceptedTotal   *telemetry.Counter
	rejectedTotal   *telemetry.Counter
	rebuildSeconds  *telemetry.Histogram
	storeReadings   *telemetry.Gauge
	retrainCollided *telemetry.Counter
}

// retrainCall is one in-flight rebuild; waiters block on done and then
// read the shared result.
type retrainCall struct {
	done  chan struct{}
	model *Model
	err   error
}

// Journal receives every durable store mutation, in exactly the order it
// was applied to the in-memory store: both methods are invoked while the
// updater's lock is held, so a write-ahead log fed by a Journal replays
// to a byte-identical store. Implementations must be fast — enqueue the
// mutation and return; flushing happens off this path (internal/wal's
// group commit).
type Journal interface {
	// AppendReadings records readings accepted into the trusted store
	// (Bootstrap seeds and accepted Submit batches). ctx carries the
	// request-scoped trace of the mutation being journaled (or
	// context.Background() for recovery/startup paths) so persistence
	// layers can attribute their cost — e.g. internal/wal records a
	// wal/append span into the upload's trace. Implementations must not
	// block on ctx; it is attribution, not cancellation.
	AppendReadings(ctx context.Context, rs []dataset.Reading)
	// RecordRetrain records a completed rebuild: the new model version
	// and the number of store readings (a stable prefix) it was trained
	// on. ctx carries the trace of the request that triggered the
	// rebuild.
	RecordRetrain(ctx context.Context, version, trainedCount int)
}

// UpdaterConfig assembles an Updater.
type UpdaterConfig struct {
	// Constructor configures model building.
	Constructor ConstructorConfig
	// Labeling configures Algorithm 1.
	Labeling dataset.LabelConfig
	// AlphaPrimeDB is the upload acceptance criterion; default 1.0 dB.
	AlphaPrimeDB float64
	// Metrics, when set, receives updater telemetry (upload outcomes,
	// rebuild duration, store size) labeled with MetricsScope.
	Metrics *telemetry.Registry
	// MetricsScope labels this updater's metrics, conventionally
	// "ch47/rtl-sdr"; empty means "default".
	MetricsScope string
	// Channel and Sensor, when set, pin the updater's scope: Submit
	// rejects batches for any other channel/sensor even while the store
	// is empty. Left zero, the first accepted batch defines the store
	// identity (the historical behaviour).
	Channel rfenv.Channel
	Sensor  sensor.Kind
}

// NewUpdater builds an updater with no data; call Submit or Bootstrap
// before Retrain.
func NewUpdater(cfg UpdaterConfig) (*Updater, error) {
	if cfg.AlphaPrimeDB == 0 {
		cfg.AlphaPrimeDB = 1.0
	}
	if cfg.AlphaPrimeDB < 0 {
		return nil, fmt.Errorf("core: negative alpha' %v", cfg.AlphaPrimeDB)
	}
	if err := cfg.Constructor.defaults(); err != nil {
		return nil, err
	}
	scope := cfg.MetricsScope
	if scope == "" {
		scope = "default"
	}
	u := &Updater{
		cfg:        cfg.Constructor,
		labelCfg:   cfg.Labeling,
		alphaPrime: cfg.AlphaPrimeDB,
		expectCh:   cfg.Channel,
		expectKind: cfg.Sensor,
		metrics:    cfg.Metrics,
		scope:      scope,
	}
	// Handles resolve to nil-safe no-ops when cfg.Metrics is nil.
	u.acceptedTotal = cfg.Metrics.Counter("waldo_updater_uploads_total",
		"WSD upload batches by acceptance outcome.", "store", scope, "outcome", "accepted")
	u.rejectedTotal = cfg.Metrics.Counter("waldo_updater_uploads_total",
		"WSD upload batches by acceptance outcome.", "store", scope, "outcome", "rejected")
	u.rebuildSeconds = cfg.Metrics.Histogram("waldo_updater_rebuild_seconds",
		"Model rebuild (relabel + retrain) duration.", nil, "store", scope)
	u.storeReadings = cfg.Metrics.Gauge("waldo_updater_store_readings",
		"Trusted readings currently stored.", "store", scope)
	u.retrainCollided = cfg.Metrics.Counter("waldo_updater_retrain_contention_total",
		"Retrain calls that coalesced onto an already in-flight rebuild.", "store", scope)
	return u, nil
}

// SetJournal wires a persistence journal into the updater. Every later
// store mutation is reported to j in apply order. Call it right after
// NewUpdater (or after Restore during recovery), before any traffic.
func (u *Updater) SetJournal(j Journal) {
	u.mu.Lock()
	u.journal = j
	u.mu.Unlock()
}

// Bootstrap seeds the store with trusted measurements. See BootstrapCtx.
func (u *Updater) Bootstrap(readings []dataset.Reading) {
	u.BootstrapCtx(context.Background(), readings)
}

// BootstrapCtx seeds the store with trusted measurements (war driving or
// dedicated infrastructure, §6) without the α′ check. ctx carries the
// causing request's trace to the journal chain — the replica apply path
// threads the shipped exchange's trace through here.
func (u *Updater) BootstrapCtx(ctx context.Context, readings []dataset.Reading) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.readings.Append(readings)
	u.storeReadings.Set(float64(u.readings.Len()))
	if u.journal != nil && len(readings) > 0 {
		u.journal.AppendReadings(ctx, readings)
	}
}

// Submit offers a WSD upload. See SubmitCtx.
func (u *Updater) Submit(batch UploadBatch) error {
	return u.SubmitCtx(context.Background(), batch)
}

// SubmitCtx offers a WSD upload. Batches that fail the α′ noise criterion
// are rejected — noisy contributions would poison Algorithm 1's labels.
// ctx carries the request trace through to the journal chain (WAL,
// replication tap), and is attribution only: an accepted batch is applied
// even if ctx is already cancelled.
func (u *Updater) SubmitCtx(ctx context.Context, batch UploadBatch) error {
	if len(batch.Readings) == 0 {
		u.rejectedTotal.Inc()
		return fmt.Errorf("core: empty upload")
	}
	// Written so that a NaN span fails even if a caller skipped Validate.
	if !(batch.CISpanDB <= u.alphaPrime) {
		u.rejectedTotal.Inc()
		return fmt.Errorf("core: upload CI span %.2f dB exceeds acceptance criterion %.2f dB",
			batch.CISpanDB, u.alphaPrime)
	}
	ch, sens := batch.Readings[0].Channel, batch.Readings[0].Sensor
	for i := range batch.Readings {
		if batch.Readings[i].Channel != ch || batch.Readings[i].Sensor != sens {
			u.rejectedTotal.Inc()
			return fmt.Errorf("core: mixed channels/sensors in upload")
		}
	}
	// The configured scope applies even to an empty store: without it,
	// the first accepted upload would silently define the store identity.
	if (u.expectCh != 0 && ch != u.expectCh) || (u.expectKind != 0 && sens != u.expectKind) {
		u.rejectedTotal.Inc()
		return fmt.Errorf("core: upload is %v/%v, updater scope is %v/%v",
			ch, sens, u.expectCh, u.expectKind)
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.readings.Len() > 0 {
		if first := u.readings.first(); first.Channel != ch || first.Sensor != sens {
			u.rejectedTotal.Inc()
			return fmt.Errorf("core: upload is %v/%v, store is %v/%v",
				ch, sens, first.Channel, first.Sensor)
		}
	}
	u.readings.Append(batch.Readings)
	u.acceptedTotal.Inc()
	u.storeReadings.Set(float64(u.readings.Len()))
	if u.journal != nil {
		u.journal.AppendReadings(ctx, batch.Readings)
	}
	return nil
}

// Size returns the number of stored readings.
func (u *Updater) Size() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.readings.Len()
}

// View returns the store as it is now, as a read-only view that stays
// valid while the store grows: captured under the lock in O(chunks), to
// be streamed or flattened after it is released.
func (u *Updater) View() ReadingView {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.readings.View()
}

// Readings returns a copy of the stored readings, made off the store
// lock. Callers that only read, or can stream, use View.
func (u *Updater) Readings() []dataset.Reading {
	return u.View().AppendTo(nil)
}

// Retrain relabels the store with Algorithm 1 and rebuilds the model,
// bumping the version. The store is snapshotted under the lock and the
// relabel+train runs with the lock released, so concurrent Submit and
// Model calls proceed during the rebuild (readings accepted after the
// snapshot are picked up by the next Retrain). If a rebuild is already in
// flight the call waits for it and returns its result instead of starting
// a second one.
func (u *Updater) Retrain() (*Model, error) {
	return u.RetrainCtx(context.Background())
}

// RetrainCtx is Retrain carrying a request trace: the rebuild spans
// (retrain, retrain/relabel, retrain/build) and the journal notifications
// (WAL retrain marker, replication tap, watch bump) are attributed to the
// trace in ctx.
func (u *Updater) RetrainCtx(ctx context.Context) (*Model, error) {
	u.mu.Lock()
	if call := u.inflight; call != nil {
		u.mu.Unlock()
		u.retrainCollided.Inc()
		<-call.done
		return call.model, call.err
	}
	if u.readings.Len() == 0 {
		u.mu.Unlock()
		return nil, fmt.Errorf("core: no readings to train on")
	}
	call := &retrainCall{done: make(chan struct{})}
	u.inflight = call
	// Snapshot: the store is append-only under mu and a view is
	// capacity-clamped, so the rebuild reads a stable prefix while
	// Submit keeps appending.
	snap := u.readings.View()
	u.mu.Unlock()

	model, err := u.rebuild(ctx, snap)

	u.mu.Lock()
	u.inflight = nil
	if err == nil {
		u.model = model
		u.version++
		u.trainedCount = snap.Len()
		if u.journal != nil {
			u.journal.RecordRetrain(ctx, u.version, snap.Len())
		}
	}
	u.mu.Unlock()
	call.model, call.err = model, err
	close(call.done)
	return model, err
}

// rebuild runs the relabel+train pipeline over a store snapshot. It holds
// no locks: this is the expensive phase Retrain keeps off the Submit and
// Model paths. Relabelling and model construction index the readings as
// one slice, so a snapshot that spans chunks is flattened here, once.
func (u *Updater) rebuild(ctx context.Context, view ReadingView) (*Model, error) {
	span := u.metrics.StartSpanCtx(ctx, "retrain")
	snap := view.Flatten()
	relabel := span.Child("relabel")
	labels, err := dataset.LabelReadings(snap, u.labelCfg)
	relabel.End()
	if err != nil {
		span.End()
		return nil, fmt.Errorf("core: relabel: %w", err)
	}
	build := span.Child("build")
	model, err := BuildModel(snap, labels, u.cfg)
	build.End()
	d := span.End()
	if err != nil {
		return nil, fmt.Errorf("core: rebuild: %w", err)
	}
	u.rebuildSeconds.Observe(d.Seconds())
	return model, nil
}

// Model returns the current model and its version (nil, 0 before the first
// Retrain).
func (u *Updater) Model() (*Model, int) {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.model, u.version
}

// TrainedCount returns the number of store readings the current model was
// trained on (0 before the first Retrain).
func (u *Updater) TrainedCount() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.trainedCount
}

// RetrainAtCtx rebuilds the model from the store's first trainedCount
// readings and installs it at exactly the given version — the replication
// apply path. A primary journals (version, trainedCount) retrain markers;
// a replica that applies the same mutation stream in order reaches the
// same store prefix, and model construction is deterministic for a fixed
// constructor config (DESIGN.md §8), so the model installed here is
// byte-identical to the one the primary serves at that version. The
// version must advance and the prefix must exist; a violation means the
// stream was applied out of order and the replica must resync. ctx
// carries the replication-apply request trace.
func (u *Updater) RetrainAtCtx(ctx context.Context, version, trainedCount int) error {
	u.mu.Lock()
	if trainedCount <= 0 || trainedCount > u.readings.Len() {
		n := u.readings.Len()
		u.mu.Unlock()
		return fmt.Errorf("core: retrain-at: trained prefix %d outside store of %d readings", trainedCount, n)
	}
	if version <= u.version {
		v := u.version
		u.mu.Unlock()
		return fmt.Errorf("core: retrain-at: version %d does not advance current %d", version, v)
	}
	snap := u.readings.View().Prefix(trainedCount)
	u.mu.Unlock()

	model, err := u.rebuild(ctx, snap)
	if err != nil {
		return err
	}
	u.mu.Lock()
	u.model = model
	u.version = version
	u.trainedCount = trainedCount
	if u.journal != nil {
		u.journal.RecordRetrain(ctx, version, trainedCount)
	}
	u.mu.Unlock()
	return nil
}

// Restore rehydrates an updater from persisted state: the full trusted
// store, the version of the last trained model, and the store prefix
// length it was trained on. The updater adopts the log — recovery decoded
// it once and nothing copies it again — so the caller must not touch it
// afterwards. The model is rebuilt from the trained prefix — model
// construction is deterministic for a fixed constructor config and input
// (DESIGN.md §8), so the restored model is byte-identical to the one that
// was serving when the state was persisted. Call on a fresh updater
// before SetJournal, so recovery itself is not re-journaled.
func (u *Updater) Restore(readings *ReadingLog, version, trainedCount int) error {
	if trainedCount < 0 || trainedCount > readings.Len() {
		return fmt.Errorf("core: restore: trained count %d outside store of %d readings",
			trainedCount, readings.Len())
	}
	if version < 0 || (version == 0) != (trainedCount == 0) {
		return fmt.Errorf("core: restore: inconsistent version %d for trained count %d",
			version, trainedCount)
	}
	var model *Model
	if trainedCount > 0 {
		var err error
		if model, err = u.rebuild(context.Background(), readings.View().Prefix(trainedCount)); err != nil {
			return fmt.Errorf("core: restore: %w", err)
		}
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.readings.Len() != 0 || u.version != 0 {
		return fmt.Errorf("core: restore into a non-empty updater (%d readings, version %d)",
			u.readings.Len(), u.version)
	}
	u.readings = *readings
	u.model = model
	u.version = version
	u.trainedCount = trainedCount
	u.storeReadings.Set(float64(u.readings.Len()))
	return nil
}

// IndexSnapshot returns a consistent view for availability indexing:
// the current model, its version, and up to maxRecent of the most
// recently accepted readings. The store is append-only, so the tail is
// the store's recency window — the occupancy evidence freshest in time
// without any per-reading timestamp bookkeeping. maxRecent ≤ 0 means
// the whole store. The readings slice is the caller's own copy of that
// window and nothing more, made after the lock is released; (nil, 0,
// evidence) before the first Retrain.
func (u *Updater) IndexSnapshot(maxRecent int) (*Model, int, []dataset.Reading) {
	u.mu.Lock()
	model, version, view := u.model, u.version, u.readings.View()
	u.mu.Unlock()
	if maxRecent > 0 {
		view = view.Tail(maxRecent)
	}
	return model, version, view.AppendTo(nil)
}

// Checkpoint calls fn with a consistent view of the store — the readings
// (see ReadingView; valid after fn returns), the model version, and the
// trained prefix length — while the store lock is held. Because the
// Journal hooks run under the same lock, everything fn sees is exactly
// the journal stream so far: internal/wal rotates its log segment inside
// fn, making the checkpoint/log cut exact. Keep fn short (Submit and
// Model block for its duration); do slow I/O on the captured state after
// Checkpoint returns.
func (u *Updater) Checkpoint(fn func(readings ReadingView, version, trainedCount int)) {
	u.mu.Lock()
	defer u.mu.Unlock()
	fn(u.readings.View(), u.version, u.trainedCount)
}

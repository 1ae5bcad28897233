package dbserver

import (
	"context"
	"fmt"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/dataset"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
)

// Replica apply surface. A replica shard receives its primary's mutation
// stream (internal/cluster ships the journal order over HTTP) and folds
// it into its own stores through these two methods. They bypass the α′
// gate and upload screening on purpose: the primary already applied its
// acceptance policy, and re-deciding here could diverge the stores. Both
// paths journal into the replica's own WAL (when it has a data dir), so
// a replica recovers from its own disk exactly like a primary.

// ApplyReplicatedReadings appends a replicated batch to the store for a
// channel/sensor, creating the store if needed. ctx carries the shipping
// exchange's trace through to the replica's own WAL append.
func (s *Server) ApplyReplicatedReadings(ctx context.Context, ch rfenv.Channel, kind sensor.Kind, rs []dataset.Reading) error {
	if len(rs) == 0 {
		return fmt.Errorf("dbserver: empty replicated batch")
	}
	for i := range rs {
		if rs[i].Channel != ch || rs[i].Sensor != kind {
			return fmt.Errorf("dbserver: replicated batch for %v/%v holds a %v/%v reading",
				ch, kind, rs[i].Channel, rs[i].Sensor)
		}
	}
	u, err := s.updaterFor(ch, kind)
	if err != nil {
		return err
	}
	u.BootstrapCtx(ctx, rs)
	s.maybeSnapshot(storeKey{ch, kind})
	return nil
}

// ApplyReplicatedRetrain rebuilds the model for a channel/sensor from the
// first trainedCount store readings and installs it at exactly the
// primary's version, so the replica serves byte-identical descriptors.
func (s *Server) ApplyReplicatedRetrain(ctx context.Context, ch rfenv.Channel, kind sensor.Kind, version, trainedCount int) error {
	u, err := s.updaterFor(ch, kind)
	if err != nil {
		return err
	}
	return u.RetrainAtCtx(ctx, version, trainedCount)
}

// HasData reports whether any store holds readings or a trained model —
// i.e. whether the server carries history a replication stream could
// conflict with. The cluster tier uses it to decide whether a node may
// adopt a primary's stream (only an empty node can) and whether a
// primary must seed its journal with recovered state before shipping.
func (s *Server) HasData() bool {
	_, byKey := s.storeSnapshot()
	for _, u := range byKey {
		if u.Size() > 0 {
			return true
		}
		if _, version := u.Model(); version > 0 {
			return true
		}
	}
	return false
}

// SnapshotStores passes every store's consistent (readings, model
// version, trained count) view to fn in deterministic key order, under
// that store's lock. The readings are the updater's checkpoint view;
// stores are append-only, so callers may retain it as a snapshot. The
// cluster tier uses this at node startup to seed a restarted primary's
// replication journal with its WAL-recovered state.
func (s *Server) SnapshotStores(fn func(ch rfenv.Channel, kind sensor.Kind, rs core.ReadingView, version, trained int)) {
	keys, byKey := s.storeSnapshot()
	for _, k := range keys {
		byKey[k].Checkpoint(func(rs core.ReadingView, version, trained int) {
			fn(k.ch, k.kind, rs, version, trained)
		})
	}
}

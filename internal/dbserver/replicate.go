package dbserver

import (
	"context"
	"fmt"

	"github.com/wsdetect/waldo/internal/core"
	"github.com/wsdetect/waldo/internal/rfenv"
	"github.com/wsdetect/waldo/internal/sensor"
)

// ApplyRecord folds one store mutation record of a primary's stream
// (internal/cluster ships the journal order) into the store ch/kind, all
// or nothing, below the α′ gate and upload screening on purpose: the
// primary already applied its acceptance policy, and re-deciding here
// could diverge the stores. Every reading of an append record must
// decode and belong to ch/kind before any is stored. A retrain record
// installs the model rebuilt from the store's trained prefix at exactly
// the primary's version (Updater.RetrainAtCtx), so the replica serves
// byte-identical descriptors; for a store the server does not hold, it
// is refused and creates nothing. The store journals the record into its
// own WAL, so a replica recovers from its disk like a primary.
func (s *Server) ApplyRecord(ctx context.Context, ch rfenv.Channel, kind sensor.Kind, rec []byte) error {
	r, err := core.ParseRecord(rec)
	if err != nil {
		return fmt.Errorf("dbserver: replicated record: %w", err)
	}
	if r.Kind == core.RecordRetrain {
		u, ok := s.lookup(ch, kind)
		if !ok {
			return fmt.Errorf("dbserver: replicated retrain for %v/%v, which has no store", ch, kind)
		}
		return u.RetrainAtCtx(ctx, r.Version, r.TrainedCount)
	}
	rs, _, err := core.DecodeReadingsWire(r.Batch)
	if err != nil {
		return fmt.Errorf("dbserver: replicated batch: %w", err)
	}
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

// TapSnapshot hands every store's current state to tap, in key order
// and under that store's lock, as the records that rebuild it on an
// empty server: its readings in append records, then, once it has a
// model, a retrain record at its version. The cluster tier uses it at
// node startup to seed a restarted primary's replication journal with
// its WAL-recovered state.
func (s *Server) TapSnapshot(tap Tap) {
	keys, byKey := s.storeSnapshot()
	var rec []byte
	for _, k := range keys {
		byKey[k].Checkpoint(func(view core.ReadingView, version, trained int) {
			for _, rs := range view.Chunks() {
				for len(rs) > 0 {
					rec, rs = core.AppendReadingsRecord(rec[:0], rs)
					tap.Record(context.Background(), k.ch, k.kind, rec)
				}
			}
			if version > 0 {
				rec = core.AppendRetrainRecord(rec[:0], version, trained)
				tap.Record(context.Background(), k.ch, k.kind, rec)
			}
		})
	}
}

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
// or nothing, below the α′ gate on purpose: the primary already applied
// its acceptance policy, and re-deciding here could diverge the stores. Every reading of an append record must
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
	return nil
}

// HasData reports whether any store holds readings or a trained model:
// history a replication stream could conflict with, so the cluster tier
// adopts a primary's stream only on a server without.
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

// TapSnapshot hands record the records that rebuild every store on an
// empty server: per store, in key order, its readings, then a retrain
// record at its model's version. It captures every view with every store
// lock held at once and calls at there, so what at reads of the Tap's
// journal sits exactly at the cut; the records are encoded after.
func (s *Server) TapSnapshot(record func(ch rfenv.Channel, kind sensor.Kind, rec []byte), at func()) {
	var encode []func()
	for encode == nil {
		keys, byKey := s.storeSnapshot()
		var hold func(cut []func())
		hold = func(cut []func()) {
			if i := len(cut); i < len(keys) {
				byKey[keys[i]].Checkpoint(func(view core.ReadingView, version, trained int) {
					hold(append(cut, func() { encodeStore(record, keys[i], view, version, trained) }))
				})
				return
			}
			// A store created since the listing may have journaled
			// already: take the cut again with it.
			s.mu.RLock()
			whole := len(s.keys) == len(keys)
			s.mu.RUnlock()
			if whole {
				at()
				encode = cut
			}
		}
		hold(make([]func(), 0, len(keys)))
	}
	for _, e := range encode {
		e()
	}
}

func encodeStore(record func(rfenv.Channel, sensor.Kind, []byte), k storeKey, view core.ReadingView, version, trained int) {
	var rec []byte
	for _, rs := range view.Chunks() {
		for len(rs) > 0 {
			rec, rs = core.AppendReadingsRecord(rec[:0], rs)
			record(k.ch, k.kind, rec)
		}
	}
	if version > 0 {
		record(k.ch, k.kind, core.AppendRetrainRecord(rec[:0], version, trained))
	}
}

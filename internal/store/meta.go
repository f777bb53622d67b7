package store

import (
	"cmp"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/meta"
)

// The store's metadata lives in one internal/meta plane, keyed by
// prefix:
//
//	o/<name>              an object's manifest (*objectInfo)
//	q/<gen>.<idx>/<name>  a queued repair item (*repairRecord)
//	u/<id>                a serving-tier upload record (opaque []byte)
//	n/<node>              a node's membership and liveness (*memberRecord)
//	c/config              the geometry the plane was created with (*geometryRecord)
//	t/<gen>/<name>        a retired version whose blocks are not all deleted yet (*objectInfo)
//	r/<node>/<block key>  a relocated block's stale copy, not deleted yet (no value)
//
// Manifests are the hot records: committed durably before a Put acks,
// relocated copy-on-write by repair workers, and walked by scrub
// iterators. Repair queue entries are advisory (commit-no-sync: a lost
// entry is re-found by the next scrub). The member records make node
// deaths survive a crash with no objects to infer them from. A tombstone
// or relocation record is staged in the very transaction that replaces,
// removes or splices its manifest, and cleared (commit-no-sync: a lost
// clear only repeats an idempotent delete) once its blocks are gone.
//
// The generation watermark is no record of its own: every block key
// carries the generation it was issued under (see blockKey), so recovery
// resumes past the largest one any manifest, tombstone or relocation
// record names, or any queued repair item's version.
//
// Planes written before liveness joined the member records hold the dead
// list in one more record, s/state; recovery folds it into the n/
// records and deletes it in one commit.

const (
	objPrefix    = "o/"
	qPrefix      = "q/"
	uploadPrefix = "u/"
	nodePrefix   = "n/"
	configKey    = "c/config"
	tombPrefix   = "t/"
	relocPrefix  = "r/"
	// legacyDeadKey is the old planes' dead list (see above).
	legacyDeadKey = "s/state"
)

func objKey(name string) string { return objPrefix + name }

// tombKey names obj's tombstone. The generation alone is unique; the name
// makes the record readable.
func tombKey(obj *objectInfo) string { return fmt.Sprintf("%s%d/%s", tombPrefix, obj.Gen, obj.Name) }

// relocKey names a stale copy's record, which holds nothing else.
func relocKey(b blockRef) string { return fmt.Sprintf("%s%d/%s", relocPrefix, b.node, b.key) }

// parseRelocKey reads a relocation record's key back into the copy it
// names.
func parseRelocKey(k string) (blockRef, error) {
	var b blockRef
	if _, err := fmt.Sscanf(k, relocPrefix+"%d/%s", &b.node, &b.key); err != nil {
		return b, fmt.Errorf("store: relocation record %q: %w", k, err)
	}
	return b, nil
}

func nodeKey(n int) string { return fmt.Sprintf("%s%06d", nodePrefix, n) }

func qKey(ref stripeRef) string {
	return fmt.Sprintf("%s%d.%d/%s", qPrefix, ref.gen, ref.idx, ref.name)
}

// geometryRecord is what every stored block and manifest already
// depends on: the codec decides what a parity block means, Nodes (the
// seed count — later joins are n/ records) and Racks what the placement
// rotation produced, BlockSize the stripe layout of the next put. New
// writes it once, into an empty plane, and checks every later open
// against it.
type geometryRecord struct {
	Codec     string `json:"codec"`
	Nodes     int    `json:"nodes"`
	Racks     int    `json:"racks"`
	BlockSize int    `json:"block_size"`
}

// reconcileGeometry makes cfg and the plane agree on the store's
// geometry and fills the remaining defaults. A plane with a record
// supplies cfg's zero geometry fields, and a non-zero field that
// disagrees with it is an ErrGeometryMismatch. A plane without one takes
// cfg's geometry as its record: defaulted when the plane is empty, but
// spelled out in full when it already holds records (a plane written
// before geometry was recorded) — those records were laid out under some
// geometry, and guessing the defaults would misread them for good.
func reconcileGeometry(cfg *Config, db *meta.DB) error {
	v, recorded := db.Get(configKey)
	if recorded {
		g := *v.(*geometryRecord)
		if cfg.Codec == nil {
			c, err := codecByName(g.Codec)
			if err != nil {
				return err
			}
			cfg.Codec = c
		}
		cfg.Nodes, cfg.Racks, cfg.BlockSize = cmp.Or(cfg.Nodes, g.Nodes), cmp.Or(cfg.Racks, g.Racks), cmp.Or(cfg.BlockSize, g.BlockSize)
		if asked := (geometryRecord{cfg.Codec.Name(), cfg.Nodes, cfg.Racks, cfg.BlockSize}); asked != g {
			return fmt.Errorf("%w: asked for %+v, plane was created with %+v", ErrGeometryMismatch, asked, g)
		}
	} else if n := db.Len(""); n > 0 && (cfg.Codec == nil || cfg.Nodes == 0 || cfg.Racks == 0 || cfg.BlockSize == 0) {
		return fmt.Errorf("%w: plane %q holds %d records but no %s; open it once with Codec, Nodes, Racks and BlockSize all set to record them", ErrGeometryMismatch, cfg.MetaDir, n, configKey)
	}
	cfg.fillDefaults()
	if recorded {
		return nil
	}
	return db.Put(configKey, &geometryRecord{
		Codec:     cfg.Codec.Name(),
		Nodes:     cfg.Nodes,
		Racks:     cfg.Racks,
		BlockSize: cfg.BlockSize,
	})
}

// repairRecord is a queued repair item in durable form: enough to
// rebuild the repairItem after a restart so damage found before a crash
// is repaired after it without waiting for the next scrub.
type repairRecord struct {
	Name     string `json:"name"`
	Gen      int64  `json:"gen"`
	Idx      int    `json:"idx"`
	Damaged  []int  `json:"damaged"`
	Erasures int    `json:"erasures"`
	Light    bool   `json:"light"`
	Silent   bool   `json:"silent"`
}

func (rr *repairRecord) item() repairItem {
	return repairItem{
		ref:      stripeRef{name: rr.Name, gen: rr.Gen, idx: rr.Idx},
		damaged:  rr.Damaged,
		erasures: rr.Erasures,
		light:    rr.Light,
		silent:   rr.Silent,
	}
}

func recordOf(it repairItem) *repairRecord {
	return &repairRecord{
		Name:     it.ref.name,
		Gen:      it.ref.gen,
		Idx:      it.ref.idx,
		Damaged:  it.damaged,
		Erasures: it.erasures,
		Light:    it.light,
		Silent:   it.silent,
	}
}

// metaCodec maps the store's record types to JSON by key prefix.
type metaCodec struct{}

func (metaCodec) Encode(key string, v any) ([]byte, error) {
	// Serving-tier records are already bytes; everything else is JSON.
	if b, ok := v.([]byte); ok && strings.HasPrefix(key, uploadPrefix) {
		return b, nil
	}
	return json.Marshal(v)
}

func (metaCodec) Decode(key string, b []byte) (any, error) {
	switch {
	case strings.HasPrefix(key, objPrefix), strings.HasPrefix(key, tombPrefix):
		o := &objectInfo{}
		if err := json.Unmarshal(b, o); err != nil {
			return nil, err
		}
		return o, nil
	case strings.HasPrefix(key, qPrefix):
		r := &repairRecord{}
		if err := json.Unmarshal(b, r); err != nil {
			return nil, err
		}
		return r, nil
	case key == legacyDeadKey:
		var st struct {
			Dead []int `json:"dead"`
		}
		if err := json.Unmarshal(b, &st); err != nil {
			return nil, err
		}
		return st.Dead, nil
	case strings.HasPrefix(key, uploadPrefix):
		// Serving-tier records are opaque to the store; copy because
		// replay buffers are reused.
		return append([]byte(nil), b...), nil
	case strings.HasPrefix(key, nodePrefix):
		m := &memberRecord{}
		if err := json.Unmarshal(b, m); err != nil {
			return nil, err
		}
		return m, nil
	case key == configKey:
		g := &geometryRecord{}
		if err := json.Unmarshal(b, g); err != nil {
			return nil, err
		}
		return g, nil
	case strings.HasPrefix(key, relocPrefix):
		return nil, nil
	default:
		return nil, fmt.Errorf("store: unknown meta key %q", key)
	}
}

// recoverMeta recovers the plane's durable state into s: manifests are
// already in the index after replay; one walk of the records finds the
// gen/seq watermark and queues every tombstone and relocation record,
// then the membership records apply — no I/O to the backend.
func (s *Store) recoverMeta() error {
	db := s.db
	var maxGen, maxSeq int64
	watermark := func(obj *objectInfo) {
		for i := range obj.Stripes {
			maxSeq = max(maxSeq, int64(obj.Stripes[i].Seq))
			for _, k := range obj.Stripes[i].Keys {
				maxGen = max(maxGen, keyGen(k))
			}
		}
	}
	it := db.Scan("")
	for {
		k, v, ok := it.Next()
		if !ok {
			break
		}
		switch {
		case strings.HasPrefix(k, objPrefix):
			watermark(v.(*objectInfo))
		case strings.HasPrefix(k, tombPrefix):
			watermark(v.(*objectInfo))
			s.queue(retiredOf(v.(*objectInfo)))
		case strings.HasPrefix(k, relocPrefix):
			b, err := parseRelocKey(k)
			if err != nil {
				return err
			}
			maxGen = max(maxGen, keyGen(b.key))
			s.queue(&retired{rec: k, left: []blockRef{b}})
		case strings.HasPrefix(k, qPrefix):
			maxGen = max(maxGen, v.(*repairRecord).Gen)
		}
	}
	// Membership records may grow the node set past cfg.Nodes (nodes
	// added before a crash), so apply them before an old plane's dead
	// list — its indices must resolve against the full table.
	if err := s.recoverMembers(); err != nil {
		return err
	}
	if v, ok := db.Get(legacyDeadKey); ok {
		var down []*memberRecord
		for _, n := range v.([]int) {
			if n >= 0 && n < len(s.members) && !s.members[n].Down {
				s.members[n].Down = true
				rec := s.members[n]
				down = append(down, &rec)
			}
		}
		if err := db.Commit(func(tx *meta.Tx) {
			for _, rec := range down {
				tx.Put(nodeKey(rec.Node), rec)
			}
			tx.Delete(legacyDeadKey)
		}); err != nil {
			return err
		}
	}
	s.gen.Store(maxGen)
	s.seq.Store(maxSeq)
	return nil
}

// MetaRecovered reports what recovery found in the metadata plane —
// the restart story in two numbers (objects recovered, WAL records
// replayed to get them).
func (s *Store) MetaRecovered() (objects int, replayed int64) {
	return s.db.Len(objPrefix), s.db.Metrics().ReplayedRecords
}

// Close drains the reclamation list, then checkpoints and releases the
// metadata plane. A block that cannot be deleted now keeps its tombstone,
// and the next open queues it again. Stop scrubbers and repair managers
// first; the store must not be used after Close.
func (s *Store) Close() error {
	_ = s.Reclaim()
	return s.db.Close()
}

// Upload records ride in the store's metadata plane under u/<id> so a
// serving tier (the HTTP gateway's multipart uploads) gets the same
// ack-means-durable, survives-kill-9 story as manifests without a second
// WAL. The bytes are opaque to the store — the owner picks the encoding
// — and are committed durably before PutUploadRecord returns.

// PutUploadRecord durably stores rec under id, replacing any previous
// record.
func (s *Store) PutUploadRecord(id string, rec []byte) error {
	if err := ValidateName(id); err != nil {
		return err
	}
	return s.db.Put(uploadPrefix+id, append([]byte(nil), rec...))
}

// GetUploadRecord returns the record stored under id, or ok=false.
// The returned bytes are a private copy.
func (s *Store) GetUploadRecord(id string) ([]byte, bool) {
	v, ok := s.db.Get(uploadPrefix + id)
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v.([]byte)...), true
}

// DeleteUploadRecord durably removes the record under id; deleting a
// missing record is not an error.
func (s *Store) DeleteUploadRecord(id string) error {
	_, err := s.db.Delete(uploadPrefix + id)
	return err
}

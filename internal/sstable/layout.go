package sstable

import "fmt"

// BlockLayout describes one data block's physical shape: the structures
// the engine's Decoder walks (paper §II-B), decoded from the stored block
// rather than reconstructed ad hoc by tooling.
type BlockLayout struct {
	// IndexKey is the index entry's separator key for the block.
	IndexKey []byte
	// Compression is the codec recorded in the block trailer.
	Compression Compression
	// PayloadLen is the stored (possibly compressed) byte count.
	PayloadLen int
	// ContentLen is the decoded block contents' byte count, including
	// the restart array.
	ContentLen int
	// Restarts is the number of restart points in the decoded block.
	Restarts int
	// Entries is the number of key-value entries in the block.
	Entries int
}

// Layout summarizes a table's data-block structure.
type Layout struct {
	// Blocks lists every data block in index order.
	Blocks []BlockLayout
	// PayloadBytes sums stored data-block payload bytes.
	PayloadBytes int64
	// ContentBytes sums decoded data-block content bytes.
	ContentBytes int64
	// Restarts sums restart points across blocks.
	Restarts int
	// Entries sums entries across blocks.
	Entries int
}

// Layout decodes every data block and returns the table's typed layout
// summary.
func (r *Reader) Layout() (Layout, error) {
	var l Layout
	var scratch []byte
	var it BlockIter
	err := r.VisitRawBlocks(func(b RawBlock) error {
		contents, err := DecodeBlock(&scratch, b.CType, b.Payload)
		if err != nil {
			return fmt.Errorf("block %d: %w", len(l.Blocks), err)
		}
		if err := it.Reset(contents); err != nil {
			return fmt.Errorf("block %d: %w", len(l.Blocks), err)
		}
		entries := 0
		for it.Next(); it.Valid(); it.Next() {
			entries++
		}
		if err := it.Error(); err != nil {
			return err
		}
		restarts := len(it.b.restarts)
		l.Blocks = append(l.Blocks, BlockLayout{
			IndexKey:    append([]byte(nil), b.IndexKey...),
			Compression: Compression(b.CType),
			PayloadLen:  len(b.Payload),
			ContentLen:  len(contents),
			Restarts:    restarts,
			Entries:     entries,
		})
		l.PayloadBytes += int64(len(b.Payload))
		l.ContentBytes += int64(len(contents))
		l.Restarts += restarts
		l.Entries += entries
		return nil
	})
	return l, err
}

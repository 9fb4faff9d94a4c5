package snappy

// The reference codec, for the external test package: it can import
// sstable, which package snappy's own tests cannot (sstable imports
// snappy).
var (
	RefDecode = refDecode
	RefEncode = refEncode
)

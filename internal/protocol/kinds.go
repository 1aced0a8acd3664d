package protocol

// Message kinds. Committee control, landmark growth, and storage/search
// each get a range; simnet delivers them all through the same inboxes.
const (
	// KindCInvite invites the recipient into an item's storage committee.
	// Item = item key, Aux = packInvite(base round, piece index),
	// Aux2 = item length, IDs = roster, Blob = item copy / IDA piece.
	KindCInvite uint8 = 0x10
	// KindCCount is the epoch count exchange between committee members.
	// Item = item key, Aux = the member's sample count. Header only.
	KindCCount uint8 = 0x11
	// KindCHandover tells old members the epoch handover happened.
	// Item = item key, Aux = epoch, IDs = new roster (members also present
	// in the new roster do not resign).
	KindCHandover uint8 = 0x12
	// KindCPiece carries a member's IDA piece to one of the epoch's leader
	// candidates, the round after the counts (sendPiece). Item = item key,
	// Aux = piece index, Aux2 = item length, Blob = piece.
	KindCPiece uint8 = 0x13

	// KindLGrow grows a storage landmark tree by one level.
	// Item = item key, Aux = packGrow(depth, wave), IDs = committee roster.
	KindLGrow uint8 = 0x20

	// KindSInquire asks a sampled node whether it knows item Item, for up
	// to two searchers a search landmark holds tasks for (tickSearchLandmarks).
	// Aux2 = the first searcher, Aux = the second searcher or 0, trace tag
	// = the first searcher's. Header only.
	KindSInquire uint8 = 0x30
	// KindSFound reports to the searcher that the sender knows item
	// Item's storage committee. IDs = storage roster. A storage landmark
	// does not send it to a searcher among the last two it was asked for
	// this round (onInquire).
	KindSFound uint8 = 0x31
	// KindSFetch asks a storage committee member for the item bytes.
	KindSFetch uint8 = 0x32
	// KindSData returns the item copy or, in IDA mode, a piece.
	// Aux = piece index (0 for a copy), Aux2 = item length, Blob = data.
	KindSData uint8 = 0x33
	// KindSDone tells an ended search's committee and landmarks to stop:
	// the searcher sends it to its committee, every receiver passes it to
	// the children it grew (finishSearch). Item = item key, Aux = the round
	// the search ended, Aux2 = searcher id. Header only, untraced, advisory.
	KindSDone uint8 = 0x34
	// KindSGrow grows a search landmark tree by one level. Every wave, the
	// searcher sends it at full depth to its committee, the tree's first
	// level. Item = item key, Aux = packGrow(depth, wave), Aux2 = searcher
	// id. Header only.
	KindSGrow uint8 = 0x36

	// KindCacheData answers a search inquiry straight from a hot-key
	// cache (DESIGN.md §10): the full item bytes go to the searcher,
	// short-circuiting the found/fetch/reconstruct leg of Algorithm 4.
	// Item = key, Aux = the serving replica's seed depth, Blob = bytes.
	KindCacheData uint8 = 0x40
	// KindCacheSeed pushes a cached replica to a walk-sample source.
	// Item = key, Aux = the recipient's seed depth, Blob = bytes.
	KindCacheSeed uint8 = 0x41
)

// kindNames names every kind in the per-kind wire metrics
// (dynp2p_proto_kind_<name>_msgs_total, _bits_total and _dead_total).
var kindNames = [...]struct {
	kind uint8
	name string
}{
	{KindCInvite, "cinvite"}, {KindCCount, "ccount"}, {KindCHandover, "chandover"},
	{KindCPiece, "cpiece"},
	{KindLGrow, "lgrow"},
	{KindSInquire, "sinquire"}, {KindSFound, "sfound"}, {KindSFetch, "sfetch"},
	{KindSData, "sdata"}, {KindSDone, "sdone"}, {KindSGrow, "sgrow"},
	{KindCacheData, "cachedata"}, {KindCacheSeed, "cacheseed"},
}

// packInvite encodes (base round, piece index) into Aux.
func packInvite(base, pieceIdx int) uint64 {
	return uint64(uint32(base)) | uint64(uint16(pieceIdx))<<32
}

func unpackInvite(aux uint64) (base, pieceIdx int) {
	return int(uint32(aux)), int(uint16(aux >> 32))
}

// packGrow encodes (remaining depth, wave id) into Aux.
func packGrow(depth, wave int) uint64 {
	return uint64(uint8(depth)) | uint64(uint32(wave))<<8
}

func unpackGrow(aux uint64) (depth, wave int) {
	return int(uint8(aux)), int(uint32(aux >> 8))
}

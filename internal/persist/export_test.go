package persist

// AppendFrame lets the external tests frame a journal record with a
// valid checksum, as an honest writer would.
var AppendFrame = appendFrame

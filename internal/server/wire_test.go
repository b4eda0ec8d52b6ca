package server

import "bayestree/internal/wire"

// The request and response types these tests were written against are
// internal/wire's now; the tests keep their names for them, so none of
// them had to change when the codec moved.
type (
	ClassifyRequest     = wire.ClassifyRequest
	lineResponse        = wire.ResultLine
	clusterLineResponse = wire.ClusterLine
	insertRequest       = wire.InsertRequest
	MicroClusterJSON    = wire.MicroClusterJSON
)

package explore

// ChunkNodes exposes the expansion chunk size to the external tests.
const ChunkNodes = chunkNodes

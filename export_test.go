package hpbrcu

// ShardStats exposes shard i's own reclamation books to the external test
// package (sharded_test.go sets them field by field to check
// AggregateSnapshot's merge list).
func ShardStats(m Map, i int) *Stats { return m.(*shardedMap).shards[i].st() }

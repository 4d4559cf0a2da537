include Shard

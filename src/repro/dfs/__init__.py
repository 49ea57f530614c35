"""The decentralized DHT file system (paper §II-A).

Replaces HDFS: files are partitioned into fixed-size blocks spread over the
ring by hash key; per-file metadata lives on the server owning the hash of
the file name; metadata and blocks are replicated on the owner's predecessor
and successor; any server can locate any block from its own finger table
with no NameNode in the path.

* :mod:`repro.dfs.blocks` -- block descriptors and per-server block stores.
* :mod:`repro.dfs.metadata` -- file metadata records and permissions.
* :mod:`repro.dfs.filesystem` -- the :class:`DHTFileSystem` facade.
* :mod:`repro.dfs.fault` -- failure recovery (takeover + re-replication).
* :mod:`repro.dfs.fsck` -- invariant checking (placement, replication,
  referential integrity).
"""

from repro._lazy import lazy_exports

__all__ = [
    "Block",
    "BlockId",
    "BlockStore",
    "BlockDescriptor",
    "FileMetadata",
    "DHTFileSystem",
    "StorageServer",
    "RecoveryReport",
    "rebalance",
    "recover_from_failure",
    "FsckReport",
    "FsckViolation",
    "fsck",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.dfs.blocks": ("Block", "BlockId", "BlockStore"),
    "repro.dfs.metadata": ("BlockDescriptor", "FileMetadata"),
    "repro.dfs.filesystem": ("DHTFileSystem", "StorageServer"),
    "repro.dfs.fault": ("RecoveryReport", "rebalance", "recover_from_failure"),
    "repro.dfs.fsck": ("FsckReport", "FsckViolation", "check as fsck"),
})

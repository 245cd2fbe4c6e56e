"""Cache wire protocols (memcache text, Redis RESP2) over the KV store.

The tentpole of the protocol layer's "protocols among threads" story:
the same :class:`~repro.runtime.driver.ConnectionDriver` that hosts
HTTP and mesh frames hosts two more real dialects, each a push-parsed,
byte-boundary-safe protocol whose pipelined replies leave through the
gathered-write egress path.
"""

from .base import CacheParseError, CacheProtocolBase, CacheStats
from .client import BlockingMemcacheClient, BlockingRespClient, RespError
from .frontend import PROTOCOLS, build_cache_frontend
from .memcache import MemcacheParser, MemcacheProtocol
from .resp import RespParser, RespProtocol

__all__ = [
    "CacheParseError",
    "CacheProtocolBase",
    "CacheStats",
    "BlockingMemcacheClient",
    "BlockingRespClient",
    "RespError",
    "PROTOCOLS",
    "build_cache_frontend",
    "MemcacheParser",
    "MemcacheProtocol",
    "RespParser",
    "RespProtocol",
]

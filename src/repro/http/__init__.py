"""The paper's case study: a simple web server for static pages (§5.2).

* :mod:`repro.http.message` — request/response types and serialization;
* :mod:`repro.http.framing` — the one HTTP/1.1 message-framing machine,
  incremental and chunking-safe, shared by both parsers;
* :mod:`repro.http.parser` — the request parser over it;
* :mod:`repro.http.cache` — the application-managed file cache (the paper
  uses a fixed 100MB cache filled through AIO, bypassing the kernel);
* :mod:`repro.http.server` — the monadic web server: one ``@do`` thread
  per client, AIO for disk, exceptions for error paths, over whichever
  transport it is handed (``rt.io`` for kernel-style sockets *or*
  ``TcpSockets`` for the application-level TCP stack — "by editing one
  line of code");
* :mod:`repro.http.client` — the monadic outbound side: the shared
  :class:`~repro.http.client.ResponseParser` (the one client-side
  response parser) and the pooled keep-alive
  :class:`~repro.http.client.HttpClient`, the public client API;
* :mod:`repro.http.baseline` — the Apache-like comparison server running
  on simulated kernel threads with the kernel page cache.
"""

from .cache import FileCache
from .client import (
    ClientResponse,
    HttpClient,
    HttpClientError,
    RequestTimeout,
    ResponseParseError,
    ResponseParser,
    UpstreamProtocolError,
)
from .message import HttpError, HttpRequest, HttpResponse
from .parser import HttpParseError, RequestParser
from .server import WebServer
from .baseline import ApacheLikeServer

__all__ = [
    "HttpRequest", "HttpResponse", "HttpError",
    "RequestParser", "HttpParseError",
    "FileCache",
    "HttpClient", "ClientResponse", "ResponseParser", "ResponseParseError",
    "HttpClientError", "RequestTimeout", "UpstreamProtocolError",
    "WebServer",
    "ApacheLikeServer",
]

"""The persistent, content-addressed two-tier cache behind incremental runs.

Tier 1 -- emitted ASTs.  The paper's pass 1 "compiles each file in
isolation, emitting ASTs" (§6); those emitted files are re-runnable
artifacts.  We key each one by what actually determines its contents:

    key = SHA-256( parser version
                 || filename
                 || include-path configuration
                 || -D define configuration
                 || preprocessed token stream )

Hashing the *preprocessed* tokens means edits to any transitively included
header invalidate every file that saw it, while whitespace/comment-only
edits still hit.  Each frame also carries its functions' local hashes and
callee sets (:data:`repro.cfg.fingerprint.FACTS_VERSION`), so a loaded
unit is fingerprinted and linked without re-walking its bodies.

Direct mode (ccache's name for it) skips the preprocessing a token key
needs.  The first time a unit is preprocessed, every ``file_reader``
call the preprocessor makes is recorded in order as ``(path, sha256 of
text)``, or ``(path, None)`` for a miss -- the include-path candidates
that were not there.  That list and the resulting token key form a *dep
entry*, stored in the same tier under its own frame magic and keyed by

    dep key = SHA-256( dep format + parser version || filename
                     || include paths || -D defines || raw source text )

A warm run hashes the source, fetches the dep entry and re-reads every
recorded path.  When every digest (and every miss) still holds, the
preprocessor -- a deterministic function of its inputs and each reader
response -- would produce the same tokens, so the recorded key is
fetched without lexing, preprocessing or token hashing.  Any mismatch
falls through to the preprocess -> token-key path; a header created
earlier on the include path turns a recorded miss into a hit, so it
invalidates the entry too.

Tier 2 -- summary/report frames (:class:`SummaryCache`).  Pass 2's
per-root outcomes (:class:`repro.engine.summaries.RootArtifact`) are
persisted under the same directory, keyed by session signature plus the
root's Merkle *function fingerprint*
(:mod:`repro.cfg.fingerprint`), so a warm incremental run replays clean
roots instead of re-traversing them (docs/DRIVER.md, "Incremental
re-analysis").

Both tiers share one frame format: a pickle preceded by a magic marker
and a SHA-256 checksum of the pickle.  The checksum is verified on every
read: a truncated, garbled, or version-skewed entry raises
:class:`CacheCorruption` instead of crashing (or silently poisoning) the
run, and the driver evicts it and re-derives the content (re-parse for
tier 1, re-analyze for tier 2).  Bare-unit pickles from older emit dirs
still load -- they just have no checksum to verify.

Where the bytes live is a separate concern: both caches speak to an
artifact-store *backend* (:mod:`repro.driver.store` -- LocalStore /
RemoteStore / TieredStore), so the same verification, eviction, and
manifest-merge discipline runs against a local directory, a shared
remote store, or a write-through overlay of both.  The directory-path
constructors (``AstCache(dir)`` / ``SummaryCache(dir)``) keep the
original on-disk layout bit for bit.

Manifest writes use ETag compare-and-swap with bounded retry
(:data:`repro.driver.store.MANIFEST_CAS_RETRIES`): the read-merge-write
cycle re-reads and re-merges on conflict instead of holding a
filesystem lock across the cycle, which is what lets rival sessions on
*different machines* share one manifest through the remote store.  On a
local backend the CAS itself is still serialized under the
per-signature :func:`_file_lock`, so each round commits exactly one
writer and N contenders converge in at most N rounds.
"""

import contextlib
import hashlib
import json
import os
import pickle
import time

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

from repro import faults
from repro.cfg.fingerprint import FACTS_VERSION, attach_facts, has_facts
from repro.driver import store as storemod
from repro.driver.store import StoreError  # noqa: F401  (re-exported)
from repro.engine.summaries import SUMMARY_VERSION

#: Bump when parser/astnodes change shape: old cache entries stop matching.
PARSER_VERSION = "1"

#: Payload format marker for emitted .ast files.
AST_FORMAT_VERSION = 2

#: Payload format marker for summary (.sum) frames.  2: RootArtifact
#: carries an annotation/user-global delta; manifests record the frame
#: and AST keys the run used (cache GC liveness).
SUMMARY_FORMAT_VERSION = 2

#: Leading magic of a framed payload: marker + 32-byte SHA-256 of the
#: pickle that follows.
FRAME_MAGIC = b"XGCCAST\x02"
_FRAME_HEADER = len(FRAME_MAGIC) + 32

#: Frame magic for direct-mode dep entries (tier 1, same layout, a marker
#: of their own so a dep entry and an AST can never be confused).
DEP_MAGIC = b"XGCCDEP\x01"

#: Payload format marker for dep entries.
DEP_FORMAT_VERSION = 1

#: Frame magic for tier-2 summary frames (same layout, distinct marker so
#: the tiers can never be confused for one another).
SUMMARY_MAGIC = b"XGCCSUM\x01"
_SUMMARY_HEADER = len(SUMMARY_MAGIC) + 32


class CacheCorruption(Exception):
    """An emitted/cached payload that cannot be trusted: truncated,
    garbled, checksum-mismatched, or written by a different parser
    version.  Callers evict and re-parse instead of crashing."""


def _config_digest(version, filename, include_paths, defines):
    """A SHA-256 primed with one unit's preprocessing configuration."""
    digest = hashlib.sha256()
    digest.update(version.encode())
    digest.update(b"\x00")
    digest.update(str(filename).encode())
    digest.update(b"\x00")
    for path in include_paths:
        digest.update(str(path).encode())
        digest.update(b"\x1d")
    digest.update(b"\x00")
    for name, value in sorted((defines or {}).items()):
        digest.update(("%s=%s" % (name, value)).encode())
        digest.update(b"\x1d")
    digest.update(b"\x00")
    return digest


def cache_key(filename, tokens, include_paths=(), defines=None):
    """The content-addressed key for one preprocessed file."""
    digest = _config_digest(PARSER_VERSION, filename, include_paths, defines)
    for token in tokens:
        digest.update(token.kind.name.encode())
        digest.update(b"\x1f")
        digest.update(token.value.encode())
        digest.update(b"\x1e")
    return digest.hexdigest()


def text_digest(text):
    """SHA-256 hex of one reader response."""
    return hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()


def dep_key(filename, text, include_paths=(), defines=None):
    """The dep-entry key of one unit: its configuration plus raw source."""
    digest = _config_digest(
        "dep%d:%s" % (DEP_FORMAT_VERSION, PARSER_VERSION), filename,
        include_paths, defines,
    )
    digest.update(text.encode("utf-8", "surrogatepass"))
    return digest.hexdigest()


#: The digest a probe reports for a reader that failed with anything but
#: a miss; it equals no recorded response, so the entry never validates
#: and the preprocessor raises the error a cold run raises.
UNREADABLE = "unreadable"


class DependencyRecorder:
    """A preprocessor ``file_reader`` recording every call in order:
    ``(path, text_digest)`` for a read, ``(path, None)`` for a miss
    (``OSError``, or ``KeyError`` from an in-memory reader).  This is
    the one record of which files a unit read: dep entries store it and
    the daemon's include dependencies come from it."""

    def __init__(self, inner=None):
        self.inner = inner
        self.calls = []

    def __call__(self, path):
        try:
            if self.inner is not None:
                text = self.inner(path)
            else:
                with open(path, "r") as handle:
                    text = handle.read()
        except (OSError, KeyError):
            self.calls.append((path, None))
            raise
        self.calls.append((path, text_digest(text)))
        return text

    def probe(self, path):
        """The digest a read of ``path`` records now: a hex digest, None
        for a miss, or :data:`UNREADABLE`."""
        try:
            self(path)
        except (OSError, KeyError):
            pass
        except Exception:
            return UNREADABLE
        return self.calls[-1][1]


def deps_hold(deps, recorder, digests):
    """True when every recorded reader response in ``deps`` still holds.

    ``digests`` memoizes ``path -> current digest`` (one probe per path
    however many units share it); ``recorder`` performs the probes.
    """
    for path, recorded in deps:
        if path not in digests:
            digests[path] = recorder.probe(path)
        if digests[path] != recorded:
            return False
    return True


def pack_deps(ast_key, deps):
    """Frame a dep entry: the token key plus the recorded reader calls."""
    return pack_frame(
        DEP_MAGIC,
        {
            "format": DEP_FORMAT_VERSION,
            "ast_key": ast_key,
            "deps": [tuple(call) for call in deps],
        },
    )


def unpack_deps(data):
    """``(ast_key, deps)`` of a dep entry; raises :class:`CacheCorruption`
    on a bad frame, a format skew, or a malformed record."""
    obj = unpack_frame(DEP_MAGIC, data)
    if not isinstance(obj, dict) or obj.get("format") != DEP_FORMAT_VERSION:
        raise CacheCorruption("dep entry format skew or not a dep entry")
    ast_key, deps = obj.get("ast_key"), obj.get("deps")
    if not isinstance(ast_key, str) or not isinstance(deps, list) or not all(
        isinstance(call, tuple) and len(call) == 2
        and isinstance(call[0], str)
        and (call[1] is None or isinstance(call[1], str))
        for call in deps
    ):
        raise CacheCorruption("malformed dep entry")
    return ast_key, deps


def pack_frame(magic, payload_obj):
    """Frame an arbitrary picklable payload: magic + SHA-256 + pickle."""
    payload = pickle.dumps(payload_obj, protocol=pickle.HIGHEST_PROTOCOL)
    return magic + hashlib.sha256(payload).digest() + payload


def unpack_frame(magic, data):
    """The verified payload object of a frame written by
    :func:`pack_frame`; raises :class:`CacheCorruption` on a wrong
    marker, checksum mismatch, or unreadable pickle."""
    header = len(magic) + 32
    if data[: len(magic)] != magic:
        raise CacheCorruption("bad frame magic (wrong tier or not a frame)")
    digest = data[len(magic):header]
    payload = data[header:]
    if len(data) < header or hashlib.sha256(payload).digest() != digest:
        raise CacheCorruption(
            "checksum mismatch (truncated or garbled payload)"
        )
    try:
        return pickle.loads(payload)
    except Exception as err:
        raise CacheCorruption("unreadable payload: %r" % err)


def pack_unit(unit, source_bytes):
    """Serialize a translation unit into the emitted .ast payload.

    Facts attached to its definitions (:func:`repro.cfg.fingerprint.
    attach_facts`) ride inside the unit; ``facts_version`` tags them.
    """
    return pack_frame(
        FRAME_MAGIC,
        {
            "format": AST_FORMAT_VERSION,
            "parser_version": PARSER_VERSION,
            "filename": unit.filename,
            "source_bytes": source_bytes,
            "facts_version": FACTS_VERSION if has_facts(unit) else None,
            "unit": unit,
        },
    )


def unpack(data):
    """``(unit, source_bytes)`` from an emitted payload.

    Verifies the frame checksum (framed payloads) and the recorded
    parser version; raises :class:`CacheCorruption` on anything
    untrustworthy.  ``source_bytes`` is 0 for legacy bare-unit pickles.
    The unit's definitions carry facts: the stored ones when the frame's
    tag is :data:`FACTS_VERSION`, else freshly computed ones.
    """
    if data[: len(FRAME_MAGIC)] == FRAME_MAGIC:
        obj = unpack_frame(FRAME_MAGIC, data)
    else:
        # legacy unframed pickle
        try:
            obj = pickle.loads(data)
        except Exception as err:
            raise CacheCorruption("unreadable payload: %r" % err)
    if isinstance(obj, dict) and "unit" in obj:
        version = obj.get("parser_version")
        if version != PARSER_VERSION:
            raise CacheCorruption(
                "parser version skew: entry says %r, this build is %r"
                % (version, PARSER_VERSION)
            )
        unit, source_bytes = obj["unit"], int(obj.get("source_bytes") or 0)
        facts_version = obj.get("facts_version")
    else:
        unit, source_bytes, facts_version = obj, 0, None
    if not hasattr(unit, "decls"):
        raise CacheCorruption(
            "payload is not a translation unit: %r" % type(unit)
        )
    if facts_version != FACTS_VERSION:
        attach_facts(unit)  # absent or stale: recompute
    return unit, source_bytes


class AstCache:
    """Content-addressed store of emitted ASTs behind one backend.

    ``AstCache(directory)`` keeps the original filesystem layout;
    ``AstCache(backend=...)`` runs the same cache against any
    :mod:`repro.driver.store` backend (remote, tiered).
    """

    def __init__(self, root=None, backend=None):
        self.root = root
        self.backend = (
            backend if backend is not None
            else storemod.LocalStore(ast_dir=root)
        )

    def path_for(self, key):
        """The local on-disk path for ``key`` (None for a backend with
        no local tier)."""
        return self.backend.local_path("ast", key)

    def lookup(self, key):
        """The on-disk path for ``key`` when it is local, a placeholder
        token when it exists only remotely, or None on a miss."""
        path = self.backend.local_path("ast", key)
        if path is not None and os.path.exists(path):
            return path
        if self.backend.head_many("ast", [key]):
            return path if path else "remote:%s" % key
        return None

    def fetch(self, key):
        """``(data, path)`` for a cached key, without verifying it.

        A local (or overlay) hit returns ``(None, path)`` -- the bytes
        stay on disk for the parent process to read, exactly as before
        the store existed.  A remote-only hit returns ``(bytes, None)``
        unless the backend's write-through landed the frame locally, in
        which case the local path is preferred.  ``(None, None)`` is a
        miss.
        """
        path = self.backend.local_path("ast", key)
        if path is not None and os.path.exists(path):
            touch_entry(path)
            if hasattr(self.backend, "count_overlay_hit"):
                self.backend.count_overlay_hit()
            return None, path
        data = self.backend.get_many("ast", [key]).get(key)
        if data is None:
            return None, None
        if path is not None and os.path.exists(path):
            return None, path  # write-through overlay landed it
        return data, None

    def load(self, key):
        """``(unit, source_bytes, emitted_bytes)`` for a cached key.

        Raises :class:`CacheCorruption` for untrustworthy entries and
        ``FileNotFoundError`` on a miss.  A successful read refreshes
        the entry's liveness (mtime locally, server-side for remotes),
        so frames a warm session keeps replaying never age past the GC
        cutoff.
        """
        data = self.backend.get_many("ast", [key]).get(key)
        if data is None:
            raise FileNotFoundError(key)
        unit, source_bytes = unpack(data)
        return unit, source_bytes, len(data)

    def store(self, key, data):
        """Atomically write a payload; safe under concurrent writers."""
        self.backend.put_many("ast", {key: data})
        spec = faults.fires("cache.corrupt", key=key)
        if spec is not None:
            self.corrupt(key, spec.get("mode", "truncate"))
        path = self.backend.local_path("ast", key)
        return path if path else key

    def touch(self, key):
        """Refresh an entry's liveness without reading it."""
        self.backend.touch_many("ast", [key])

    def entry_mtime(self, key):
        """The entry's mtime (local or remote), or None when absent."""
        return self.backend.entry_mtime("ast", key)

    def set_entry_mtime(self, key, ts):
        """Backdate an entry (GC aging in tests) through the backend."""
        self.backend.touch_many("ast", [key], ts=ts)

    def corrupt(self, key, mode="truncate"):
        """Damage a stored entry *through the backend* (fault injection:
        reaches every tier a write-through put reached, so self-heal
        tests cannot silently heal from an untouched copy)."""
        data = self.backend.get_many("ast", [key]).get(key)
        if data is None:
            return
        self.backend.put_many("ast", {key: corrupt_bytes(data, mode)})

    def evict(self, key):
        """Drop a (corrupt) entry; the next probe for ``key`` misses."""
        return self.backend.delete_many("ast", [key]) > 0

    def fetch_deps(self, key):
        """The dep-entry frame bytes stored under ``key``, or None."""
        return self.backend.get_many("ast", [key]).get(key)

    def store_deps(self, key, ast_key, deps):
        """Persist a dep entry (no fault site: AST corruption faults
        keep hitting AST frames only)."""
        self.backend.put_many("ast", {key: pack_deps(ast_key, deps)})


def pack_artifact(artifact):
    """Serialize one per-root outcome into a framed .sum payload."""
    return pack_frame(
        SUMMARY_MAGIC,
        {
            "format": SUMMARY_FORMAT_VERSION,
            "summary_version": SUMMARY_VERSION,
            "artifact": artifact,
        },
    )


def unpack_artifact(data):
    """The :class:`repro.engine.summaries.RootArtifact` of a framed .sum
    payload; raises :class:`CacheCorruption` on anything untrustworthy,
    including frames written by a different summary format or engine
    summary version."""
    obj = unpack_frame(SUMMARY_MAGIC, data)
    if not isinstance(obj, dict) or "artifact" not in obj:
        raise CacheCorruption("summary frame has no artifact")
    if obj.get("format") != SUMMARY_FORMAT_VERSION:
        raise CacheCorruption(
            "summary format skew: entry says %r, this build is %r"
            % (obj.get("format"), SUMMARY_FORMAT_VERSION)
        )
    if obj.get("summary_version") != SUMMARY_VERSION:
        raise CacheCorruption(
            "engine summary version skew: entry says %r, this build is %r"
            % (obj.get("summary_version"), SUMMARY_VERSION)
        )
    return obj["artifact"]


class SummaryCache:
    """Tier 2: per-root summary/report frames plus the session manifest.

    Frames are keyed by the session signature and the root's Merkle
    fingerprint (the key is computed by the incremental session, see
    :mod:`repro.driver.session`), so an entry can only ever be replayed
    into a run whose extensions, options, and transitive callee cone all
    match the run that produced it.
    """

    def __init__(self, root=None, backend=None):
        self.root = root
        self.backend = (
            backend if backend is not None
            else storemod.LocalStore(sum_dir=root)
        )
        #: Batched-read stash: frames fetched ahead of time by
        #: :meth:`prefetch`, consumed by :meth:`get`.
        self._prefetched = {}

    def path_for(self, key):
        """The local on-disk path for ``key`` (None for a backend with
        no local tier)."""
        return self.backend.local_path("sum", key)

    def lookup(self, key):
        """The on-disk path for ``key`` when it is local, a placeholder
        token when it exists only remotely, or None on a miss."""
        path = self.backend.local_path("sum", key)
        if path is not None and os.path.exists(path):
            return path
        if self.backend.head_many("sum", [key]):
            return path if path else "remote:%s" % key
        return None

    def load(self, key):
        """The cached :class:`RootArtifact` for ``key``.

        Raises :class:`CacheCorruption` for untrustworthy entries and
        ``FileNotFoundError`` on a miss.  A successful read refreshes
        the frame's liveness: a frame a warm session (or daemon)
        replays daily must read as *in use* to the GC's ``mtime >=
        cutoff`` keep rule, not as untouched since the run that stored
        it.
        """
        data = self.backend.get_many("sum", [key]).get(key)
        if data is None:
            raise FileNotFoundError(key)
        return unpack_artifact(data)

    def get(self, key):
        """The cached :class:`RootArtifact`, or None on a miss (one
        probe, no separate existence check).  Raises
        :class:`CacheCorruption` for untrustworthy frames -- the caller
        evicts and re-analyzes.  Consumes the :meth:`prefetch` stash
        first, so batched backends pay one round trip for a whole clean
        set."""
        data = self._prefetched.pop(key, None)
        if data is None:
            data = self.backend.get_many("sum", [key]).get(key)
        if data is None:
            return None
        return unpack_artifact(data)

    def prefetch(self, keys):
        """Fetch many frames in one backend batch, stashed for
        :meth:`get`.  Best-effort: a failed batch just means per-key
        fetches later (which carry the real error handling)."""
        wanted = [key for key in keys if key not in self._prefetched]
        if not wanted:
            return
        try:
            self._prefetched.update(self.backend.get_many("sum", wanted))
        except storemod.StoreError:
            pass

    def touch_many(self, keys):
        """Refresh frames' liveness without reading them (in-memory
        warm hits still count as GC liveness): one backend call."""
        self.backend.touch_many("sum", list(keys))

    def entry_mtime(self, key):
        """The frame's mtime (local or remote), or None when absent."""
        return self.backend.entry_mtime("sum", key)

    def set_entry_mtime(self, key, ts):
        """Backdate a frame (GC aging in tests) through the backend."""
        self.backend.touch_many("sum", [key], ts=ts)

    def store(self, key, artifact):
        """Atomically persist one per-root outcome."""
        self.backend.put_many("sum", {key: pack_artifact(artifact)})
        spec = faults.fires("summary.corrupt", key=key)
        if spec is not None:
            self.corrupt(key, spec.get("mode", "truncate"))
        path = self.backend.local_path("sum", key)
        return path if path else key

    def store_many(self, artifacts):
        """Persist a batch of per-root outcomes (one backend round trip
        for remote stores)."""
        payload = {
            key: pack_artifact(artifact)
            for key, artifact in sorted(artifacts.items())
        }
        self.backend.put_many("sum", payload)
        for key in payload:
            spec = faults.fires("summary.corrupt", key=key)
            if spec is not None:
                self.corrupt(key, spec.get("mode", "truncate"))

    def corrupt(self, key, mode="truncate"):
        """Damage a stored frame *through the backend* (fault
        injection: reaches every tier a write-through put reached)."""
        data = self.backend.get_many("sum", [key]).get(key)
        if data is None:
            return
        self.backend.put_many("sum", {key: corrupt_bytes(data, mode)})

    def evict(self, key):
        """Drop a (corrupt) entry; the next probe for ``key`` misses."""
        self._prefetched.pop(key, None)
        return self.backend.delete_many("sum", [key]) > 0

    # -- session manifest -------------------------------------------------
    #
    # One JSON document per session signature recording the fingerprint of
    # every function the last completed run saw.  Diffing the manifest
    # against freshly computed fingerprints yields the dirty function set.

    def manifest_path(self, signature):
        """The local manifest path (a stable token for pathless
        backends)."""
        path = self.backend.manifest_local_path(signature)
        return path if path else "manifest-%s.json" % signature[:32]

    def _decode_manifest(self, text, signature):
        """The validated manifest document from its JSON text, or None
        when absent/unreadable/skewed."""
        if text is None:
            return None
        try:
            obj = json.loads(text)
        except ValueError:
            return None
        if (
            not isinstance(obj, dict)
            or obj.get("format") != SUMMARY_FORMAT_VERSION
            or obj.get("signature") != signature
            or not isinstance(obj.get("fingerprints"), dict)
        ):
            return None
        return obj

    def load_manifest_document(self, signature):
        """The full manifest document for a signature, or None when
        absent/unreadable/skewed (an unreachable store counts as
        absent: cold run, never a crash)."""
        try:
            text, __ = self.backend.manifest_get(signature)
        except storemod.StoreError:
            return None
        return self._decode_manifest(text, signature)

    def load_manifest(self, signature):
        """``{function: fingerprint}`` from the last run under this
        signature, or None when absent/unreadable (a garbled manifest
        degrades to a cold run, never a crash)."""
        obj = self.load_manifest_document(signature)
        if obj is None:
            return None
        return obj["fingerprints"]

    def store_manifest(self, signature, fingerprints, frame_keys=(),
                       ast_keys=(), stats=None):
        """Record the fingerprints of a completed run.

        A read-merge-write through ETag compare-and-swap: entries from
        a concurrent session (functions we did not fingerprint this
        run, frame/AST keys we did not touch) are preserved rather than
        clobbered, so two incremental sessions sharing one store both
        keep their warm state.  For functions both runs saw, this run's
        fingerprint wins.  A CAS conflict (rival landed first) re-reads
        and re-merges, bounded by :data:`repro.driver.store.
        MANIFEST_CAS_RETRIES` and counted as ``store_cas_conflicts``;
        an exhausted bound loses this merge loudly (degradation record)
        rather than corrupting anything.  ``frame_keys``/``ast_keys``
        are the tier-2/tier-1 entries this run stored or replayed; GC
        treats them as live as long as the manifest is fresh.
        """
        spec = faults.fires("summary.manifest", key=signature)
        if spec is not None:
            # Fault injection: a rival session completes its manifest
            # store in the window before ours.  The merge below must
            # preserve its entries.
            self._merge_manifest(
                signature,
                dict(spec.get("fingerprints") or {"__rival__": ["r", "r"]}),
                spec.get("frame_keys") or (),
                spec.get("ast_keys") or (),
                None,
            )
        return self._merge_manifest(
            signature, fingerprints, frame_keys, ast_keys, stats)

    def _manifest_document(self, signature, fingerprints, frame_keys,
                           ast_keys):
        return json.dumps(
            {
                "format": SUMMARY_FORMAT_VERSION,
                "signature": signature,
                "fingerprints": fingerprints,
                "frame_keys": sorted(frame_keys),
                "ast_keys": sorted(ast_keys),
            },
            sort_keys=True,
        )

    def _merge_manifest(self, signature, fingerprints, frame_keys,
                        ast_keys, stats):
        counted_merge = False
        for _attempt in range(storemod.MANIFEST_CAS_RETRIES):
            text, etag = self.backend.manifest_get(signature)
            existing = self._decode_manifest(text, signature)
            merged = dict(fingerprints)
            frames = set(frame_keys)
            asts = set(ast_keys)
            if existing is not None:
                theirs = existing["fingerprints"]
                for name, entry in theirs.items():
                    merged.setdefault(name, entry)
                frames.update(existing.get("frame_keys") or ())
                asts.update(existing.get("ast_keys") or ())
                if (
                    stats is not None and not counted_merge
                    and set(theirs) - set(fingerprints)
                ):
                    stats.add("manifest_merges")
                    counted_merge = True
            document = self._manifest_document(
                signature, merged, frames, asts)
            spec = faults.fires("store.conflict", key=signature)
            if spec is not None:
                # Fault injection: a rival's CAS lands in our
                # read->write window, invalidating the ETag we hold.
                self._rival_cas(signature, spec)
            committed, __, __ = self.backend.manifest_cas(
                signature, document, etag, stats=stats)
            if committed:
                return self.manifest_path(signature)
            if stats is not None:
                stats.add("store_cas_conflicts")
        if stats is not None:
            stats.record_degradation(
                "store",
                "manifest CAS for %s... exhausted %d retries; this "
                "run's merge was lost (next run re-derives)"
                % (signature[:12], storemod.MANIFEST_CAS_RETRIES),
            )
        return self.manifest_path(signature)

    def _rival_cas(self, signature, spec):
        """Land a genuine rival merge between our read and our CAS (the
        ``store.conflict`` fault): read-merge-write of the rival's
        fingerprints, retried a few times so it always commits."""
        rival = dict(spec.get("fingerprints") or {"__rival__": ["r", "r"]})
        for _attempt in range(8):
            text, etag = self.backend.manifest_get(signature)
            existing = self._decode_manifest(text, signature)
            merged = dict(rival)
            frames = set(spec.get("frame_keys") or ())
            asts = set(spec.get("ast_keys") or ())
            if existing is not None:
                for name, entry in existing["fingerprints"].items():
                    merged.setdefault(name, entry)
                frames.update(existing.get("frame_keys") or ())
                asts.update(existing.get("ast_keys") or ())
            document = self._manifest_document(
                signature, merged, frames, asts)
            committed, __, __ = self.backend.manifest_cas(
                signature, document, etag)
            if committed:
                return


#: Lockfile-fallback tuning (non-``fcntl`` platforms): how long one
#: waiter retries before it declares the holder dead, and how old an
#: ``.excl`` lockfile must be before it is stolen as stale.
_LOCK_FALLBACK_TIMEOUT = 10.0
_LOCK_FALLBACK_STALE = 30.0


@contextlib.contextmanager
def _file_lock(path, stats=None):
    """An exclusive advisory lock around a read-merge-write cycle.

    With ``fcntl`` available this is a plain ``flock``.  Without it the
    lock does NOT silently become a no-op (that would quietly drop the
    read-merge-write concurrency guarantee): it falls back to an
    ``O_CREAT | O_EXCL`` lockfile with bounded retry, counted in
    ``stats`` as ``manifest_lock_fallbacks`` so the degraded locking
    discipline is visible in ``--stats-json``.  A lockfile older than
    :data:`_LOCK_FALLBACK_STALE` seconds (crashed holder) is stolen;
    a waiter that exhausts :data:`_LOCK_FALLBACK_TIMEOUT` steals too
    rather than wedging — the write itself stays atomic (tmp +
    replace), so the worst case is a lost merge, never corruption.
    """
    if fcntl is not None:
        fd = os.open(path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            try:
                yield True
            finally:
                fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)
        return
    if stats is not None:
        stats.add("manifest_lock_fallbacks")
    excl = path + ".excl"
    deadline = time.monotonic() + _LOCK_FALLBACK_TIMEOUT
    while True:
        try:
            fd = os.open(excl, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
            break
        except FileExistsError:
            try:
                stale = time.time() - os.path.getmtime(excl)
            except OSError:
                continue  # holder released between open and stat: retry
            if stale > _LOCK_FALLBACK_STALE or time.monotonic() > deadline:
                # Crashed holder (or one outliving any sane merge):
                # steal the lock instead of wedging every later writer.
                try:
                    os.remove(excl)
                except OSError:
                    pass
                continue
            time.sleep(0.01)
    try:
        os.close(fd)
        yield True
    finally:
        try:
            os.remove(excl)
        except OSError:
            pass


#: Sorted manifest paths under a summaries dir (lives with the backends
#: now; kept here for callers that imported it from this module).
_manifest_files = storemod._manifest_files


def collect_cache_garbage(cache_dir, summaries_subdir="summaries",
                          cutoff_days=30.0, now=None, stats=None,
                          extra_live_sum=(), extra_live_ast=(),
                          _after_scan=None, backend=None):
    """Sweep stale content-addressed entries from an artifact store.

    The sweep semantics (manifest pins, mtime cutoff, extra-live keys,
    the locked pin-read + sweep critical section, the ``_after_scan``
    test hook) live in :meth:`repro.driver.store.LocalStore.gc`; this
    wrapper keeps the long-standing directory-path call shape, builds
    the matching local backend when none is given, and folds the
    eviction counters into ``stats``.  With ``backend`` set (a tiered
    or remote store) the sweep runs wherever the frames live --
    server-side GC receives the same extra-live pins, so a daemon's
    warm state protects remote frames exactly like local ones.
    """
    if backend is None:
        backend = storemod.LocalStore(
            root=cache_dir,
            sum_dir=(
                os.path.join(cache_dir, summaries_subdir)
                if cache_dir is not None else None
            ),
        )
    counters = backend.gc(
        cutoff_days=cutoff_days, now=now, stats=stats,
        extra_live_sum=extra_live_sum, extra_live_ast=extra_live_ast,
        _after_scan=_after_scan,
    )
    if stats is not None:
        for name, value in counters.items():
            if value:
                stats.add(name, value)
    return counters


def touch_entry(path):
    """Refresh an entry's mtime (GC keeps what warm runs actually use);
    best-effort, a vanished or read-only entry is not an error."""
    try:
        os.utime(path, None)
    except OSError:
        pass


def corrupt_bytes(data, mode="truncate"):
    """Return a damaged copy of an in-memory frame (fault injection).

    Modes mirror real failure shapes: "truncate" (full disk / killed
    writer), "garbage" (bit rot over the frame header), "version" (a
    structurally valid entry written by a different parser version --
    checksum intact, so only the version check catches it).
    """
    if mode == "truncate":
        return data[: len(data) // 2]
    if mode == "garbage":
        junk = b"\xde\xad\xbe\xef" * 16
        return junk + data[len(junk):]
    if mode == "version":
        if data[: len(SUMMARY_MAGIC)] == SUMMARY_MAGIC:
            magic, payload = SUMMARY_MAGIC, data[_SUMMARY_HEADER:]
        elif data[: len(FRAME_MAGIC)] == FRAME_MAGIC:
            magic, payload = FRAME_MAGIC, data[_FRAME_HEADER:]
        else:
            magic, payload = FRAME_MAGIC, data
        obj = pickle.loads(payload)
        if magic == SUMMARY_MAGIC:
            obj["summary_version"] = "0-skewed"
        else:
            obj["parser_version"] = "0-skewed"
        return pack_frame(magic, obj)
    raise ValueError("unknown corruption mode: %r" % mode)


def corrupt_entry(path, mode="truncate"):
    """Damage an on-disk entry in place (see :func:`corrupt_bytes`)."""
    with open(path, "rb") as handle:
        data = handle.read()
    with open(path, "wb") as handle:
        handle.write(corrupt_bytes(data, mode))
    return path

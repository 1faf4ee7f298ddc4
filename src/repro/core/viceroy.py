"""The viceroy: centralized, type-independent resource management (§3.2).

The viceroy is responsible for:

- routing operations on Odyssey objects to the managing warden (via the
  :class:`~repro.core.namespace.Namespace`, standing in for the in-kernel
  interceptor);
- monitoring resources — network bandwidth through the RPC logs and its
  :class:`~repro.core.policies.Policy`, other resources through attached
  :mod:`~repro.core.monitors`;
- tracking ``request`` registrations and generating upcalls the moment a
  resource's availability leaves a registered window of tolerance.

A registration is one-shot: once violated and notified, it is dropped; the
application re-registers with a window matching its new fidelity (paper
§4.3).
"""

from repro import telemetry
from repro.connectivity.state import ConnState, ConnectivityTracker
from repro.core.namespace import Namespace
from repro.core.policies import OdysseyPolicy
from repro.core.resources import (
    Registration,
    Resource,
    ResourceDescriptor,
    Window,
    advance_request_ids,
)
from repro.core.upcalls import Upcall, UpcallDispatcher
from repro.errors import (
    BadDescriptor,
    OdysseyError,
    RequestNotFound,
    ToleranceError,
)


class Viceroy:
    """Central resource manager for one mobile client."""

    def __init__(self, sim, network, policy=None, upcalls=None, root="/odyssey",
                 connectivity=None):
        self.sim = sim
        self.network = network
        self.policy = policy or OdysseyPolicy()
        self.policy.attach(self)
        self.namespace = Namespace(root)
        self.upcalls = upcalls or UpcallDispatcher(sim)
        self._registrations = {}
        #: Secondary indexes over ``_registrations`` so per-resource and
        #: per-connection rechecks scan only the registrations that can
        #: match.  With thousands of fleet clients the flat table makes
        #: every round-trip recheck O(all registrations); the indexes make
        #: it O(matching ones).  Insertion order within each index matches
        #: the flat table, so violation/upcall order is unchanged.
        self._by_resource = {}  # Resource -> {request_id: Registration}
        self._by_connection = {}  # connection_id -> {request_id: Registration}
        self._connections = {}  # connection_id -> (conn, warden)
        self._monitors = {}  # Resource -> monitor
        #: Per-connection connectivity trackers; ``connectivity`` supplies
        #: shared hysteresis overrides (degrade_after/disconnect_after/
        #: recover_after) for every tracker this viceroy creates.
        self._trackers = {}
        self._tracker_config = dict(connectivity or {})
        self.upcalls_sent = 0
        #: level=0 "disconnected" upcalls issued (subset of upcalls_sent).
        self.disconnect_upcalls = 0
        #: Observers called as ``fn(event, **info)`` on registration
        #: activity ("request", "upcall", "connection") — the seam the
        #: chaos auditor hangs off without a live telemetry recorder.
        self._observers = []

    # -- wiring -------------------------------------------------------------

    def add_observer(self, fn):
        """Subscribe ``fn(event, **info)`` to registration-path activity.

        Events: ``"request"`` (app, path, request_id, time), ``"upcall"``
        (kind, app, request_id, level, time), ``"connection"``
        (connection_id, tracker, time).  The list is empty in ordinary
        runs, so the hot path pays one truthiness check.
        """
        self._observers.append(fn)

    def _notify_observers(self, event, **info):
        for fn in self._observers:
            fn(event, **info)

    def mount(self, prefix, warden):
        """Mount ``warden`` into the Odyssey namespace."""
        self.namespace.mount(prefix, warden)

    def register_connection(self, conn, warden=None):
        """Adopt an RPC connection: subscribe to its log, inform the policy.

        Every adopted connection gets a :class:`ConnectivityTracker`; its
        transitions drive disconnected upcalls and warden reintegration.
        """
        if conn.connection_id in self._connections:
            raise OdysseyError(f"connection {conn.connection_id!r} already registered")
        self._connections[conn.connection_id] = (conn, warden)
        tracker = ConnectivityTracker(
            clock=lambda: self.sim.now, name=conn.connection_id,
            **self._tracker_config,
        )
        tracker.subscribe(
            lambda transition, cid=conn.connection_id:
            self._connectivity_changed(cid, transition)
        )
        self._trackers[conn.connection_id] = tracker
        self.policy.register_connection(conn)
        conn.log.subscribe(self)
        if self._observers:
            self._notify_observers("connection",
                                   connection_id=conn.connection_id,
                                   tracker=tracker, time=self.sim.now)

    def unregister_connection(self, connection_id, notify=True):
        """Drop an adopted connection and tear down everything keyed on it.

        Registrations bound to the connection can never be re-checked once
        it is gone (``availability`` would raise on the dead id, wedging
        every subsequent window check), so they are removed here.  With
        ``notify=True`` each owning application that has an upcall receiver
        gets one final upcall carrying ``level=None`` — the teardown signal
        (see :class:`~repro.core.upcalls.Upcall`) — so it can re-register
        against a replacement connection.  Returns the number of
        registrations torn down.
        """
        if connection_id not in self._connections:
            raise OdysseyError(f"unknown connection {connection_id!r}")
        conn, _ = self._connections.pop(connection_id)
        self._trackers.pop(connection_id, None)
        conn.log.unsubscribe(self)
        self.policy.unregister_connection(connection_id)
        doomed = list(self._by_connection.get(connection_id, {}).values())
        for registration in doomed:
            self._drop_registration(registration)
            if notify and self.upcalls.has_receiver(registration.app):
                self._send_upcall(registration,
                                  registration.descriptor.resource,
                                  None, kind="teardown")
        return len(doomed)

    def attach_monitor(self, monitor):
        """Adopt a non-bandwidth resource monitor (battery, CPU, ...)."""
        if monitor.resource in self._monitors:
            raise OdysseyError(f"monitor for {monitor.resource} already attached")
        self._monitors[monitor.resource] = monitor
        monitor.attach(self)

    # -- connectivity -----------------------------------------------------------

    def connectivity(self, connection_id):
        """The connectivity tracker for an adopted connection (or None)."""
        return self._trackers.get(connection_id)

    def _connectivity_changed(self, connection_id, transition):
        """A tracker moved: issue disconnected upcalls / trigger reintegration."""
        if transition.target is ConnState.DISCONNECTED:
            self._notify_disconnected(connection_id)
        elif (transition.target is ConnState.CONNECTED
              and transition.source is ConnState.RECONNECTING):
            entry = self._connections.get(connection_id)
            if entry is not None:
                conn, warden = entry
                if warden is not None:
                    warden.on_reconnect(conn)

    def _notify_disconnected(self, connection_id):
        """Tear down the connection's registrations with level=0 upcalls.

        A disconnected link has zero availability by definition, so every
        window riding on it is violated at once: the registration is
        dropped (one-shot, as usual) and the owning application's handler
        receives an upcall carrying ``level=0.0`` — the "disconnected"
        signal.  Unlike the teardown notice (``level=None``) the connection
        object still exists; applications should drop to their lowest
        fidelity, lean on the warden's cache, and re-register when the
        degraded-service period ends.
        """
        doomed = list(self._by_connection.get(connection_id, {}).values())
        for registration in doomed:
            self._drop_registration(registration)
            if self.upcalls.has_receiver(registration.app):
                self._send_upcall(registration,
                                  registration.descriptor.resource,
                                  0.0, kind="disconnect")

    # -- registration bookkeeping -------------------------------------------

    def _add_registration(self, registration):
        self._registrations[registration.request_id] = registration
        resource = registration.descriptor.resource
        self._by_resource.setdefault(resource, {})[
            registration.request_id] = registration
        if registration.connection_id is not None:
            self._by_connection.setdefault(registration.connection_id, {})[
                registration.request_id] = registration

    def _drop_registration(self, registration):
        del self._registrations[registration.request_id]
        resource = registration.descriptor.resource
        bucket = self._by_resource.get(resource)
        if bucket is not None:
            bucket.pop(registration.request_id, None)
            if not bucket:
                del self._by_resource[resource]
        if registration.connection_id is not None:
            bucket = self._by_connection.get(registration.connection_id)
            if bucket is not None:
                bucket.pop(registration.request_id, None)
                if not bucket:
                    del self._by_connection[registration.connection_id]

    def _distinct_wardens(self):
        """Each mounted warden once, in mount order (a warden may back
        several prefixes)."""
        seen = []
        for warden in self.namespace.mounts.values():
            if warden not in seen:
                seen.append(warden)
        return seen

    # -- checkpoint / restore ----------------------------------------------------

    def checkpoint(self):
        """Plain-data snapshot of the state a viceroy restart must not lose.

        Covers live window-of-tolerance registrations (with their request
        ids), upcall counters, each connection's connectivity state, and
        every mounted warden's deferred-op log (keyed by warden name) —
        the queued disconnected-mode writes, their per-log seq counter
        included, so a restored viceroy replays them in the original order.
        Everything is JSON-serializable; :meth:`restore` is the inverse.
        """
        return {
            "deferred": {warden.name: warden.deferred.checkpoint()
                         for warden in self._distinct_wardens()},
            "registrations": [
                {"request_id": r.request_id, "app": r.app, "path": r.path,
                 "resource": r.descriptor.resource.label,
                 "lower": r.descriptor.window.lower,
                 "upper": r.descriptor.window.upper,
                 "handler": r.descriptor.handler,
                 "connection_id": r.connection_id}
                for r in self._registrations.values()
            ],
            "upcalls_sent": self.upcalls_sent,
            "disconnect_upcalls": self.disconnect_upcalls,
            "connectivity": {cid: tracker.state.value
                             for cid, tracker in self._trackers.items()},
        }

    def restore(self, state):
        """Rebuild registrations from a :meth:`checkpoint` snapshot.

        Replaces the current registration table.  Registrations bound to a
        connection id this viceroy no longer knows cannot be re-checked and
        are dropped; their request ids are returned so the caller can
        notify the owning applications.  The shared request-id counter is
        advanced past every restored id, so post-restore ``request`` calls
        can never mint a duplicate.  Returns ``(restored, dropped_ids)``.

        Connectivity trackers are *not* restored: a restarted viceroy must
        re-derive link health from fresh evidence, not trust a snapshot
        from before it went down.  Deferred-op logs are restored into the
        warden with the matching name; snapshots for wardens this viceroy
        does not mount are ignored.
        """
        self._registrations = {}
        self._by_resource = {}
        self._by_connection = {}
        dropped = []
        highest = 0
        for snap in state["registrations"]:
            connection_id = snap["connection_id"]
            highest = max(highest, snap["request_id"])
            if (connection_id is not None
                    and connection_id not in self._connections):
                dropped.append(snap["request_id"])
                continue
            descriptor = ResourceDescriptor(
                resource=Resource.from_label(snap["resource"]),
                window=Window(snap["lower"], snap["upper"]),
                handler=snap["handler"],
            )
            registration = Registration(
                app=snap["app"], path=snap["path"], descriptor=descriptor,
                connection_id=connection_id, request_id=snap["request_id"],
            )
            self._add_registration(registration)
        advance_request_ids(highest)
        wardens = {warden.name: warden for warden in self._distinct_wardens()}
        for name, snapshot in state.get("deferred", {}).items():
            warden = wardens.get(name)
            if warden is not None:
                warden.deferred.restore(snapshot)
        self.upcalls_sent = state.get("upcalls_sent", self.upcalls_sent)
        self.disconnect_upcalls = state.get("disconnect_upcalls",
                                            self.disconnect_upcalls)
        return len(self._registrations), dropped

    # -- log observation (RpcLog observer interface) ---------------------------

    def on_round_trip(self, log, entry):
        self.policy.on_round_trip(log, entry)
        self._recheck(Resource.NETWORK_LATENCY, connection_id=log.connection_id)

    def on_throughput(self, log, entry):
        self.policy.on_throughput(log, entry)
        self.recheck_bandwidth()

    def monitor_changed(self, resource):
        """A monitor's level moved; re-check its registrations."""
        self._recheck(resource)

    # -- availability -----------------------------------------------------------

    def availability(self, resource, connection_id=None, path=None):
        """Current availability of ``resource`` (None if not yet known).

        Bandwidth and latency are per-connection: give either the
        connection id or an Odyssey path whose warden identifies it.
        """
        if resource is Resource.NETWORK_BANDWIDTH:
            cid = self._connection_for(connection_id, path)
            return None if cid is None else self.policy.availability(cid)
        if resource is Resource.NETWORK_LATENCY:
            cid = self._connection_for(connection_id, path)
            if cid is None:
                return None
            rtt = self.policy.round_trip(cid)
            return rtt * 1e6 / 2.0 if rtt else None  # one-way, microseconds
        monitor = self._monitors.get(resource)
        if monitor is None:
            raise BadDescriptor(f"no monitor attached for resource {resource}")
        return monitor.current()

    def total_bandwidth(self):
        """The policy's estimate of total client bandwidth (or None)."""
        return self.policy.total()

    def availability_for_connection(self, connection_id):
        """Shorthand: bandwidth available to one connection (or None)."""
        return self.availability(
            Resource.NETWORK_BANDWIDTH, connection_id=connection_id
        )

    def _connection_for(self, connection_id, path):
        if connection_id is not None:
            if connection_id not in self._connections:
                raise OdysseyError(f"unknown connection {connection_id!r}")
            return connection_id
        if path is not None:
            warden, rest = self.namespace.resolve(path)
            return warden.primary_connection(rest).connection_id
        return None

    # -- the request/cancel interface (paper Fig. 3a) ------------------------------

    def request(self, app, path, descriptor):
        """Register a window of tolerance (paper §4.2).

        If the resource is currently outside the window, raises
        :class:`~repro.errors.ToleranceError` carrying the available level
        — the application is expected to retry with a window matching a
        new fidelity.  Otherwise returns a unique request id.
        """
        resource = descriptor.resource
        connection_id = None
        if resource in (Resource.NETWORK_BANDWIDTH, Resource.NETWORK_LATENCY):
            connection_id = self._connection_for(None, path)
            level = self.availability(resource, connection_id=connection_id)
        else:
            level = self.availability(resource)
        rec = telemetry.RECORDER
        if level is not None and not descriptor.window.contains(level):
            if rec.enabled:
                rec.count("viceroy.tolerance_rejections",
                          resource=resource.label)
            raise ToleranceError(resource, level)
        registration = Registration(
            app=app, path=path, descriptor=descriptor, connection_id=connection_id
        )
        self._add_registration(registration)
        if rec.enabled:
            rec.count("viceroy.requests", resource=resource.label)
            rec.event("viceroy.request", app=app, path=path,
                      request_id=registration.request_id,
                      resource=resource.label,
                      lower=descriptor.window.lower,
                      upper=descriptor.window.upper)
        if self._observers:
            self._notify_observers("request", app=app, path=path,
                                   request_id=registration.request_id,
                                   time=self.sim.now)
        return registration.request_id

    def cancel(self, request_id):
        """Discard a registration (paper Fig. 3a)."""
        if request_id not in self._registrations:
            raise RequestNotFound(f"no registered request {request_id!r}")
        self._drop_registration(self._registrations[request_id])
        rec = telemetry.RECORDER
        if rec.enabled:
            rec.count("viceroy.cancels")

    def registered_requests(self, app=None):
        """Live registrations, optionally filtered by application."""
        return [r for r in self._registrations.values()
                if app is None or r.app == app]

    # -- window checking ------------------------------------------------------------

    def recheck_bandwidth(self):
        """Re-check every bandwidth registration (estimate or level changed)."""
        self._recheck(Resource.NETWORK_BANDWIDTH)

    def _recheck(self, resource, connection_id=None):
        if resource is Resource.NETWORK_BANDWIDTH and connection_id is None:
            self._recheck_bandwidth()
            return
        if connection_id is not None:
            candidates = self._by_connection.get(connection_id, {})
        else:
            candidates = self._by_resource.get(resource, {})
        violated = []
        for registration in candidates.values():
            descriptor = registration.descriptor
            if descriptor.resource is not resource:
                continue
            level = self.availability(
                resource, connection_id=registration.connection_id
            ) if registration.connection_id else self.availability(resource)
            if level is None:
                continue
            if not descriptor.window.contains(level):
                violated.append((registration, level))
        self._upcall_violations(resource, violated)

    def _recheck_bandwidth(self):
        """One pass over every bandwidth registration.

        The policy hoists what all connections share (the total, the fair
        part, the usage split) once, so a pass costs one lookup per
        registration instead of one availability query each.
        """
        registrations = self._by_resource.get(Resource.NETWORK_BANDWIDTH)
        if not registrations:
            return
        level_of = self.policy.bandwidth_levels()
        if level_of is None:
            return
        violated = []
        for registration in registrations.values():
            if registration.connection_id is None:
                continue
            level = level_of(registration.connection_id)
            if level is not None and not registration.descriptor.window.contains(level):
                violated.append((registration, level))
        self._upcall_violations(Resource.NETWORK_BANDWIDTH, violated)

    def _upcall_violations(self, resource, violated):
        for registration, level in violated:
            self._drop_registration(registration)
            self._send_upcall(registration, resource, level, kind="violation")

    def _send_upcall(self, registration, resource, level, kind):
        """Issue one upcall for a dropped registration (all three flavours:
        window ``violation``, connection ``teardown``, link ``disconnect``)."""
        self.upcalls_sent += 1
        if kind == "disconnect":
            self.disconnect_upcalls += 1
        rec = telemetry.RECORDER
        if rec.enabled:
            rec.count("viceroy.upcalls", kind=kind)
            rec.event("viceroy.upcall", kind=kind, app=registration.app,
                      request_id=registration.request_id,
                      resource=resource.label, level=level)
        if self._observers:
            self._notify_observers("upcall", kind=kind, app=registration.app,
                                   request_id=registration.request_id,
                                   level=level, time=self.sim.now)
        self.upcalls.send(
            registration.app,
            registration.descriptor.handler,
            Upcall(registration.request_id, resource, level),
        )

    # -- object operations (delegated through the namespace) --------------------------

    def tsop(self, app, path, opcode, inbuf=None):
        """Type-specific operation (paper Fig. 3e).  Generator."""
        warden, rest = self.namespace.resolve(path)
        result = yield from warden.tsop(app, rest, opcode, inbuf)
        return result

    def vfs_open(self, app, path, flags="r"):
        warden, rest = self.namespace.resolve(path)
        return warden, warden.vfs_open(app, rest, flags)

    def vfs_stat(self, path):
        warden, rest = self.namespace.resolve(path)
        return warden.vfs_stat(rest)

    def vfs_readdir(self, path):
        return self.namespace.readdir(path)

    # -- introspection ---------------------------------------------------------

    def describe(self):
        """A snapshot of the viceroy's state, for debugging and tooling.

        Returns a dict: mounts, connections (with availability), attached
        monitors (with levels), live registrations, and counters.
        """
        connections = {}
        for cid in self._connections:
            try:
                connections[cid] = self.policy.availability(cid)
            except Exception:  # noqa: BLE001 - introspection must not throw
                connections[cid] = None
        return {
            "policy": self.policy.name,
            "total_bandwidth": self.total_bandwidth(),
            "mounts": {prefix: warden.name
                       for prefix, warden in self.namespace.mounts.items()},
            "connections": connections,
            "monitors": {resource.label: monitor.current()
                         for resource, monitor in self._monitors.items()},
            "connectivity": {cid: tracker.state.value
                             for cid, tracker in self._trackers.items()},
            "disconnect_upcalls": self.disconnect_upcalls,
            "registrations": [
                {"request_id": r.request_id, "app": r.app, "path": r.path,
                 "resource": r.descriptor.resource.label,
                 "window": (r.descriptor.window.lower,
                            r.descriptor.window.upper)}
                for r in self._registrations.values()
            ],
            "upcalls_sent": self.upcalls_sent,
        }

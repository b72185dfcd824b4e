(* Concurrent TCP transport: many NDJSON sessions over one shared
   Engine.

   Thread model.  The engine is driving-thread-only, so one mutex (the
   driving lock) serializes every Session.handle_decided call across
   all connections — concurrency buys admission, parsing, queueing and
   socket I/O overlap, not parallel query execution (batch items still
   fan across the engine's pool under the lock).  Per connection:

   - a reader thread reads lines, runs Admission.enter *immediately*
     (queued work must count as in flight, and the shed decision
     belongs to the moment of arrival, not of execution), and pushes
     into a bounded queue.  A full queue blocks the reader, which stops
     reading the socket, which fills the TCP window — backpressure all
     the way to the client with no unbounded buffering anywhere.
   - a worker thread pops FIFO (responses stay in request order), takes
     the driving lock, dispatches, writes + flushes the response, and
     leaves admission.

   Errors on one connection never touch another: a malformed frame is
   an error *response* (Session/Wire's job), a dead socket tears down
   only its own two threads, and the session's handles die with it.  An
   exception that escapes a request is reported on stderr and tears the
   connection down the same way. *)

type job =
  | Handle of {
      line : string;
      ticket : Admission.ticket option;
      decision : Admission.decision;
    }
  | Rejected of string  (* render the [overloaded] error, in order *)

(* Bounded blocking queue. *)
module Bq = struct
  type 'a t = {
    q : 'a Queue.t;
    cap : int;
    lock : Mutex.t;
    not_empty : Condition.t;
    not_full : Condition.t;
    mutable closed : bool;
  }

  let create cap =
    { q = Queue.create ();
      cap;
      lock = Mutex.create ();
      not_empty = Condition.create ();
      not_full = Condition.create ();
      closed = false }

  (* [false] when the queue was closed under us — the caller still owns
     whatever resources ride on [x] (admission tickets). *)
  let push t x =
    Mutex.protect t.lock (fun () ->
        while Queue.length t.q >= t.cap && not t.closed do
          Condition.wait t.not_full t.lock
        done;
        if t.closed then false
        else begin
          Queue.push x t.q;
          Condition.signal t.not_empty;
          true
        end)

  (* [None] once closed and drained. *)
  let pop t =
    Mutex.protect t.lock (fun () ->
        while Queue.is_empty t.q && not t.closed do
          Condition.wait t.not_empty t.lock
        done;
        match Queue.take_opt t.q with
        | Some x ->
            Condition.signal t.not_full;
            Some x
        | None -> None)

  let close t =
    Mutex.protect t.lock (fun () ->
        t.closed <- true;
        Condition.broadcast t.not_empty;
        Condition.broadcast t.not_full)
end

type conn = {
  fd : Unix.file_descr;
  session : Session.t;
  queue : job Bq.t;
  mutable reader : Thread.t option;
  mutable worker : Thread.t option;
}

type t = {
  listen_fd : Unix.file_descr;
  port : int;
  engine : Engine.t;
  admission : Admission.t option;
  after : unit -> unit;
  driving_lock : Mutex.t;
  conns : (conn, unit) Hashtbl.t;
  conns_lock : Mutex.t;
  mutable accept_thread : Thread.t option;
  mutable stopping : bool;
}

let port t = t.port

let m_conns = Gus_obs.Metrics.counter "serve.connections"

let reader_loop t conn =
  let ic = Unix.in_channel_of_descr conn.fd in
  (try
     let rec loop () =
       let line = input_line ic in
       if String.trim line <> "" then begin
         match t.admission with
         | None ->
             ignore
               (Bq.push conn.queue
                  (Handle { line; ticket = None; decision = Admission.Admit }))
         | Some a -> (
             match Admission.enter a with
             | Error msg -> ignore (Bq.push conn.queue (Rejected msg))
             | Ok (ticket, decision) ->
                 if
                   not
                     (Bq.push conn.queue
                        (Handle { line; ticket = Some ticket; decision }))
                 then Admission.leave a ticket)
       end;
       loop ()
     in
     loop ()
   with End_of_file | Sys_error _ | Unix.Unix_error _ -> ());
  Bq.close conn.queue

let worker_loop t conn =
  let oc = Unix.out_channel_of_descr conn.fd in
  (* Once a write fails the client is gone; keep draining so every
     admission ticket still in the queue is returned. *)
  let dead = ref false in
  (* An exception that escapes the session or [after] is a bug, not a
     client error: report it and drop the connection as if the client
     had died.  The shutdown ends the reader, so the queue closes and
     the drain below returns every ticket. *)
  let drop e =
    Printf.eprintf "gusdb serve: connection dropped: uncaught exception %s\n%!"
      (Printexc.to_string e);
    dead := true;
    try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()
  in
  let write_line response =
    if not !dead then (
      (try
         output_string oc response;
         output_char oc '\n';
         flush oc
       with Sys_error _ | Unix.Unix_error _ -> dead := true);
      if not !dead then
        (* [after] may touch shared state (--prom-out file dumps), so it
           runs under the driving lock like everything non-per-conn. *)
        try Mutex.protect t.driving_lock t.after with e -> drop e)
  in
  let rec loop () =
    match Bq.pop conn.queue with
    | None -> ()
    | Some (Rejected msg) ->
        write_line (Json.to_string (Wire.error_json "overloaded" msg));
        loop ()
    | Some (Handle { line; ticket; decision }) ->
        let response =
          if !dead then None
          else
            try
              Mutex.protect t.driving_lock (fun () ->
                  Session.handle_decided conn.session ~decision line)
            with e ->
              drop e;
              None
        in
        (match (ticket, t.admission) with
        | Some tk, Some a -> Admission.leave a tk
        | _ -> ());
        Option.iter write_line response;
        loop ()
  in
  loop ();
  Mutex.protect t.driving_lock (fun () -> Session.close conn.session);
  (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  Mutex.protect t.conns_lock (fun () -> Hashtbl.remove t.conns conn)

let spawn_conn t fd =
  Gus_obs.Metrics.incr m_conns;
  let session_cap =
    match t.admission with
    | Some a -> Admission.session_inflight a
    | None -> 8
  in
  let conn =
    { fd;
      session = Session.create t.engine;
      queue = Bq.create session_cap;
      reader = None;
      worker = None }
  in
  Mutex.protect t.conns_lock (fun () -> Hashtbl.replace t.conns conn ());
  conn.reader <- Some (Thread.create (fun () -> reader_loop t conn) ());
  conn.worker <- Some (Thread.create (fun () -> worker_loop t conn) ())

let accept_loop t =
  let rec loop () =
    match Unix.accept t.listen_fd with
    | fd, _ ->
        spawn_conn t fd;
        loop ()
    | exception Unix.Unix_error _ ->
        (* listen socket closed (stop) or transient accept failure *)
        if not t.stopping then loop ()
  in
  loop ()

let start ?(host = "127.0.0.1") ?(port = 0) ?admission
    ?(after = fun () -> ()) engine =
  (* A dead client mid-write must be an EPIPE error on this connection,
     not a process kill. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  (try Unix.bind fd addr
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  Unix.listen fd 64;
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let t =
    { listen_fd = fd;
      port;
      engine;
      admission;
      after;
      driving_lock = Mutex.create ();
      conns = Hashtbl.create 16;
      conns_lock = Mutex.create ();
      accept_thread = None;
      stopping = false }
  in
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  t

let stop t =
  if not t.stopping then begin
    t.stopping <- true;
    (* shutdown, not close: closing an fd does NOT wake a thread already
       blocked in accept(2) on it — shutdown makes that accept return
       EINVAL immediately.  The fd is closed only after the join, so its
       number cannot be reused under the in-flight syscall. *)
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    Option.iter Thread.join t.accept_thread;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (* Closing each fd unblocks its reader; worker drains and exits. *)
    let conns =
      Mutex.protect t.conns_lock (fun () ->
          Hashtbl.fold (fun c () acc -> c :: acc) t.conns [])
    in
    List.iter
      (fun c ->
        (try Unix.shutdown c.fd Unix.SHUTDOWN_RECEIVE
         with Unix.Unix_error _ -> ());
        Bq.close c.queue)
      conns;
    List.iter
      (fun c ->
        Option.iter Thread.join c.reader;
        Option.iter Thread.join c.worker)
      conns
  end

let wait t = Option.iter Thread.join t.accept_thread

type worker = {
  mutex : Mutex.t;
  cond : Condition.t;
  mutable job : (unit -> unit) option;
  mutable stop : bool;
  mutable failure : exn option;
}

type t = {
  size : int;
  workers : worker array;
  domains : unit Domain.t array;
  mutable live : bool;
}

let size t = t.size
let is_live t = t.live

let worker_loop w =
  let running = ref true in
  while !running do
    Mutex.lock w.mutex;
    while w.job = None && not w.stop do
      Condition.wait w.cond w.mutex
    done;
    match w.job with
    | Some f ->
        Mutex.unlock w.mutex;
        (try f () with e -> w.failure <- Some e);
        Mutex.lock w.mutex;
        w.job <- None;
        Condition.broadcast w.cond;
        Mutex.unlock w.mutex
    | None ->
        Mutex.unlock w.mutex;
        running := false
  done

let shutdown t =
  if t.live then begin
    t.live <- false;
    Array.iter
      (fun w ->
        Mutex.lock w.mutex;
        w.stop <- true;
        Condition.broadcast w.cond;
        Mutex.unlock w.mutex)
      t.workers;
    Array.iter Domain.join t.domains
  end

(* One process-wide registry instead of one at_exit closure per pool:
   forgotten pools never block process exit, and creating many short-lived
   pools does not grow the exit hook list. *)
let registry : t list ref = ref []
let registry_hooked = ref false

let register t =
  if not !registry_hooked then begin
    registry_hooked := true;
    at_exit (fun () -> List.iter shutdown !registry)
  end;
  registry := t :: !registry

let create ~size =
  let size = max 1 size in
  let workers =
    Array.init (size - 1) (fun _ ->
        { mutex = Mutex.create ();
          cond = Condition.create ();
          job = None;
          stop = false;
          failure = None })
  in
  let domains = Array.map (fun w -> Domain.spawn (fun () -> worker_loop w)) workers in
  let t = { size; workers; domains; live = true } in
  (* Blocked workers would keep the process from shutting down cleanly. *)
  if size > 1 then register t;
  t

let submit w f =
  Mutex.lock w.mutex;
  w.failure <- None;
  w.job <- Some f;
  Condition.broadcast w.cond;
  Mutex.unlock w.mutex

let await w =
  Mutex.lock w.mutex;
  while w.job <> None do
    Condition.wait w.cond w.mutex
  done;
  Mutex.unlock w.mutex

let m_jobs = Gus_obs.Metrics.counter "pool.jobs"
let m_lanes_used = Gus_obs.Metrics.counter "pool.lanes_used"
let m_lane_ns = Gus_obs.Metrics.histogram "pool.lane_us"

let m_imbalance =
  (* Slowest-lane / mean-lane wall time per fan-out, in tenths: 10 means
     perfectly balanced, 20 means the critical lane took twice the mean. *)
  Gus_obs.Metrics.histogram
    ~buckets:[| 10.; 11.; 12.; 15.; 20.; 30.; 50.; 100. |]
    "pool.imbalance_x10"

let chunks t ~lo ~hi =
  let total = hi - lo in
  if total <= 0 then [||]
  else begin
    let lanes = min t.size total in
    let per = total / lanes and rem = total mod lanes in
    (* Chunk k covers [start k, start (k+1)): the first [rem] chunks get
       one extra index. *)
    let start k = lo + (k * per) + min k rem in
    Array.init lanes (fun k -> (start k, start (k + 1)))
  end

let run_chunks t ~lo ~hi f =
  let total = hi - lo in
  if total > 0 then begin
    if not t.live then invalid_arg "Pool.run_chunks: pool is shut down";
    let parts = chunks t ~lo ~hi in
    let lanes = Array.length parts in
    if lanes <= 1 then f lo hi
    else begin
      (* Observability wrapper.  [observe] is decided once per fan-out so
         the common disabled path pays two flag loads and then runs the
         exact historical code; lane timing never touches the RNG or the
         chunk layout, so results are identical either way. *)
      let observe =
        Gus_obs.Metrics.enabled () || Gus_obs.Trace.enabled ()
      in
      let lane_ns = if observe then Array.make lanes 0 else [||] in
      let run k clo chi =
        if observe then begin
          let t0 = Gus_obs.Trace.now_ns () in
          Gus_obs.Trace.span "pool.lane"
            ~args:(fun () ->
              [ ("lane", string_of_int k);
                ("span_items", string_of_int (chi - clo)) ])
            (fun () -> f clo chi);
          lane_ns.(k) <- Gus_obs.Trace.now_ns () - t0
        end
        else f clo chi
      in
      for k = 1 to lanes - 1 do
        let clo, chi = parts.(k) in
        submit t.workers.(k - 1) (fun () -> run k clo chi)
      done;
      let caller_failure =
        let clo, chi = parts.(0) in
        try run 0 clo chi; None with e -> Some e
      in
      for k = 1 to lanes - 1 do
        await t.workers.(k - 1)
      done;
      if observe && Gus_obs.Metrics.enabled () then begin
        Gus_obs.Metrics.incr m_jobs;
        Gus_obs.Metrics.add m_lanes_used lanes;
        let sum = ref 0 and slowest = ref 0 in
        Array.iter
          (fun ns ->
            sum := !sum + ns;
            if ns > !slowest then slowest := ns;
            Gus_obs.Metrics.observe m_lane_ns (float_of_int ns /. 1e3))
          lane_ns;
        let mean = float_of_int !sum /. float_of_int lanes in
        if mean > 0. then
          Gus_obs.Metrics.observe m_imbalance
            (10. *. float_of_int !slowest /. mean)
      end;
      (match caller_failure with Some e -> raise e | None -> ());
      for k = 1 to lanes - 1 do
        match t.workers.(k - 1).failure with
        | Some e -> raise e
        | None -> ()
      done
    end
  end

let recommended_size () = max 1 (Domain.recommended_domain_count ())

let env_size () =
  match Sys.getenv_opt "GUSDB_DOMAINS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some n
      | _ -> None)

let size_override = ref None

let default_size () =
  match !size_override with
  | Some n -> n
  | None -> (
      match env_size () with Some n -> n | None -> recommended_size ())

let default_pool = ref None

let default () =
  match !default_pool with
  | Some t when t.live && t.size = default_size () -> t
  | prev ->
      (match prev with Some t -> shutdown t | None -> ());
      let t = create ~size:(default_size ()) in
      default_pool := Some t;
      t

let set_default_size n =
  if n < 1 then invalid_arg "Pool.set_default_size: size must be >= 1";
  size_override := Some n

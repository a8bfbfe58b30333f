(* A small work-stealing-free Domain pool: [map ~jobs f xs] applies [f] to
   every element of [xs] on up to [jobs] domains and returns the results in
   input order, so a parallel sweep is byte-identical to a serial one as
   long as [f] itself is deterministic.

   Work is dealt by an atomic next-index counter, results land in distinct
   slots of a shared array (safe under the OCaml 5 memory model: each slot
   has a single writer, and [Domain.join] publishes the writes). An
   exception in any worker is re-raised on the caller after all domains are
   joined.

   Nested calls degrade to serial: a [map] issued from inside a worker runs
   on that worker rather than oversubscribing the machine with
   grandchild domains. *)

let in_worker_key : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let in_worker () = Domain.DLS.get in_worker_key

(* [jobs] defaulting: what the runtime recommends for this machine. *)
let default_jobs () = Domain.recommended_domain_count ()

let map ?jobs f xs =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  let items = Array.of_list xs in
  let n = Array.length items in
  let workers = min jobs n in
  if workers <= 1 || in_worker () then List.map f xs
  else begin
    let results = Array.make n None in
    let first_error = Atomic.make None in
    let next = Atomic.make 0 in
    let worker () =
      Domain.DLS.set in_worker_key true;
      let rec drain () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (match f items.(i) with
           | v -> results.(i) <- Some v
           | exception e ->
             (* keep the first failure; later items still run so joins
                don't deadlock on unconsumed work *)
             ignore (Atomic.compare_and_set first_error None (Some e)));
          drain ()
        end
      in
      drain ()
    in
    let domains = Array.init workers (fun _ -> Domain.spawn worker) in
    Array.iter Domain.join domains;
    (match Atomic.get first_error with Some e -> raise e | None -> ());
    Array.to_list (Array.map (fun r -> Option.get r) results)
  end

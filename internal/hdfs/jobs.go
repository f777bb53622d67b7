package hdfs

import (
	"repro/internal/cluster"
)

// Task is a schedulable unit of work (a MapReduce map task). Run is
// invoked with the node the task landed on and must call finish exactly
// once when the task's work (including any transfers it started) is done.
type Task struct {
	// PreferredNode requests data-local scheduling (−1: anywhere).
	PreferredNode int
	Run           func(node int, finish func())
}

// Job is a set of tasks sharing fair-scheduler treatment, mirroring
// Hadoop jobs: WordCount jobs and BlockFixer repair jobs ride the same
// tracker ("repair-jobs … can run along regular jobs under a single
// control mechanism", §3).
type Job struct {
	Name string
	// MaxParallel caps the job's concurrently running tasks (0 =
	// unlimited). The BlockFixer uses this to bound repair parallelism.
	MaxParallel int

	pending     []*Task
	running     int
	completed   int
	total       int
	SubmittedAt float64
	FinishedAt  float64
	// OnFinish fires when the last task completes.
	OnFinish func(*Job)
}

// AddTask appends a task; only valid before Submit.
func (j *Job) AddTask(t *Task) {
	j.pending = append(j.pending, t)
	j.total++
}

// Done reports whether all tasks completed.
func (j *Job) Done() bool { return j.total > 0 && j.completed == j.total }

// Completed returns the number of finished tasks.
func (j *Job) Completed() int { return j.completed }

// Total returns the task count.
func (j *Job) Total() int { return j.total }

// JobTracker is a slot-based fair scheduler: each live node offers a
// fixed number of map slots and free slots are handed to jobs round-robin
// so "computational time is fairly shared among jobs" (§5.2.4, Hadoop's
// FairScheduler).
type JobTracker struct {
	cl           *cluster.Cluster
	slotsPerNode int
	used         []int
	jobs         []*Job
	rr           int
}

// NewJobTracker creates a tracker with the given map slots per node.
func NewJobTracker(cl *cluster.Cluster, slotsPerNode int) *JobTracker {
	if slotsPerNode <= 0 {
		slotsPerNode = 2
	}
	return &JobTracker{cl: cl, slotsPerNode: slotsPerNode, used: make([]int, cl.Nodes())}
}

// Submit queues a job and schedules immediately.
func (jt *JobTracker) Submit(j *Job) {
	j.SubmittedAt = jt.cl.Eng.Now()
	jt.jobs = append(jt.jobs, j)
	jt.schedule()
}

// ActiveJobs returns jobs that still have pending or running tasks.
func (jt *JobTracker) ActiveJobs() int {
	n := 0
	for _, j := range jt.jobs {
		if !j.Done() {
			n++
		}
	}
	return n
}

// freeSlotOn reports whether node n can accept a task.
func (jt *JobTracker) freeSlotOn(n int) bool {
	return jt.cl.Alive(n) && jt.used[n] < jt.slotsPerNode
}

// pickNode chooses a node for a task: the preferred node when it has a
// free slot, then the live node with the most free slots (stable
// tie-break by id for determinism).
func (jt *JobTracker) pickNode(preferred int) int {
	if preferred >= 0 && jt.freeSlotOn(preferred) {
		return preferred
	}
	best, bestFree := -1, 0
	for n := 0; n < jt.cl.Nodes(); n++ {
		if !jt.cl.Alive(n) {
			continue
		}
		free := jt.slotsPerNode - jt.used[n]
		if free > bestFree {
			best, bestFree = n, free
		}
	}
	return best
}

// schedulable reports whether a job can launch another task now.
func schedulable(j *Job) bool {
	if len(j.pending) == 0 {
		return false
	}
	return j.MaxParallel == 0 || j.running < j.MaxParallel
}

// schedule assigns pending tasks to free slots, round-robin across jobs.
func (jt *JobTracker) schedule() {
	for {
		// Find the next schedulable job in round-robin order.
		var job *Job
		for i := 0; i < len(jt.jobs); i++ {
			cand := jt.jobs[(jt.rr+i)%len(jt.jobs)]
			if schedulable(cand) {
				job = cand
				jt.rr = (jt.rr + i + 1) % len(jt.jobs)
				break
			}
		}
		if job == nil {
			return
		}
		task := job.pending[0]
		node := jt.pickNode(task.PreferredNode)
		if node < 0 {
			return // no free slots anywhere
		}
		job.pending = job.pending[1:]
		job.running++
		jt.used[node]++
		finished := false
		finish := func() {
			if finished {
				return
			}
			finished = true
			jt.used[node]--
			job.running--
			job.completed++
			if job.Done() {
				job.FinishedAt = jt.cl.Eng.Now()
				if job.OnFinish != nil {
					job.OnFinish(job)
				}
			}
			jt.schedule()
		}
		task.Run(node, finish)
	}
}

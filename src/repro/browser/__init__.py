"""Browser substrate: preferences, page loads, rendering, instrumentation."""

from .browser import Browser, LoadResult, blocked_fetch_record
from .devtools import DevToolsSession, TraceEvent
from .preferences import SUPPORTED_PROTOCOLS, BrowserPreferences
from .renderer import PaintEvent, Renderer, RenderTimeline

__all__ = [
    "Browser",
    "LoadResult",
    "DevToolsSession",
    "TraceEvent",
    "SUPPORTED_PROTOCOLS",
    "BrowserPreferences",
    "PaintEvent",
    "Renderer",
    "RenderTimeline",
    "blocked_fetch_record",
]
